//! Tuples: rows with stable identity and join lineage.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use daisy_common::{DaisyError, Result, TupleId, Value};

use crate::cell::Cell;

/// The cells of a [`Tuple`]: one shared, copy-on-write slice.
///
/// Cloning is a reference-count bump, so a world version, a query answer or
/// a checkpoint that copies a row shares its cells with the original.
/// Reading goes through `Deref<Target = [Cell]>` — indexing, `.iter()`,
/// `for cell in &tuple.cells`, `.len()` all work as on a `Vec<Cell>`.
/// Writing (`cells[i] = …`, `.iter_mut()`) detaches a private copy of the
/// row first when — and only when — the slice is still shared, so a row is
/// copied at most once however many of its cells a holder rewrites.
#[derive(Clone, Default, Serialize, Deserialize)]
#[serde(from = "Vec<Cell>", into = "Vec<Cell>")]
pub struct Cells(Arc<[Cell]>);

impl Cells {
    /// `true` when both hold the same allocation (neither has been written
    /// since one was cloned from the other) — the sharing invariant tests pin.
    #[doc(hidden)]
    pub fn shares_storage_with(&self, other: &Cells) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Deref for Cells {
    type Target = [Cell];

    fn deref(&self) -> &[Cell] {
        &self.0
    }
}

impl DerefMut for Cells {
    fn deref_mut(&mut self) -> &mut [Cell] {
        Arc::make_mut(&mut self.0)
    }
}

impl From<Vec<Cell>> for Cells {
    fn from(cells: Vec<Cell>) -> Cells {
        Cells(cells.into())
    }
}

impl From<Cells> for Vec<Cell> {
    fn from(cells: Cells) -> Vec<Cell> {
        cells.to_vec()
    }
}

impl FromIterator<Cell> for Cells {
    fn from_iter<I: IntoIterator<Item = Cell>>(iter: I) -> Cells {
        Cells(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Cells {
    type Item = &'a Cell;
    type IntoIter = std::slice::Iter<'a, Cell>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl PartialEq for Cells {
    fn eq(&self, other: &Cells) -> bool {
        self.0[..] == other.0[..]
    }
}

/// Prints as a plain list, exactly like the `Vec<Cell>` it replaces (world
/// digests and test oracles hash the `Debug` text of tuples).
impl fmt::Debug for Cells {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0[..], f)
    }
}

/// A row of a relation (or of an intermediate query result).
///
/// Tuples carry
/// * a stable [`TupleId`] assigned by the base relation they originate from,
///   so that cleaning a query result can be written back to the dataset, and
/// * `lineage`: the identifiers of the base tuples a joined tuple stems from
///   (the paper stores "the originating tuple IDs" for self-joins and joins,
///   §4), in join order.
///
/// Cloning a base tuple is `O(1)` and allocation-free: the cells are shared
/// (see [`Cells`]) and the empty lineage owns no heap memory.  A joined
/// tuple's clone copies its (short) lineage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tuple {
    /// Identity of this tuple in its base relation.  For joined tuples this
    /// is a fresh id local to the result; the base identities live in
    /// `lineage`.
    pub id: TupleId,
    /// The cells, one per schema field.
    pub cells: Cells,
    /// Base-relation tuple ids this tuple derives from (empty for base
    /// tuples, one entry per joined relation otherwise).
    pub lineage: Vec<TupleId>,
}

impl Tuple {
    /// Creates a base tuple from determinate values.
    pub fn from_values(id: TupleId, values: Vec<Value>) -> Self {
        Tuple {
            id,
            cells: values.into_iter().map(Cell::Determinate).collect(),
            lineage: Vec::new(),
        }
    }

    /// Creates a tuple from cells.
    pub fn from_cells(id: TupleId, cells: Vec<Cell>) -> Self {
        Tuple {
            id,
            cells: cells.into(),
            lineage: Vec::new(),
        }
    }

    /// Attaches lineage (builder style).
    pub fn with_lineage(mut self, lineage: Vec<TupleId>) -> Self {
        self.lineage = lineage;
        self
    }

    /// Number of cells.
    pub fn arity(&self) -> usize {
        self.cells.len()
    }

    /// Returns the cell at `idx`.
    pub fn cell(&self, idx: usize) -> Result<&Cell> {
        self.cells
            .get(idx)
            .ok_or_else(|| DaisyError::Execution(format!("cell index {idx} out of bounds")))
    }

    /// Returns the cell at `idx` mutably, detaching the row's cells from
    /// any sharer first (see [`Cells`]).
    pub fn cell_mut(&mut self, idx: usize) -> Result<&mut Cell> {
        // Bounds first: a bad index must not cost a row copy.
        if idx >= self.cells.len() {
            return Err(DaisyError::Execution(format!(
                "cell index {idx} out of bounds"
            )));
        }
        Ok(&mut self.cells[idx])
    }

    /// The best-effort determinate value of cell `idx` (determinate value or
    /// most probable candidate).
    pub fn value(&self, idx: usize) -> Result<Value> {
        Ok(self.cell(idx)?.expected_value())
    }

    /// `true` if any cell of the tuple is probabilistic.
    pub fn is_probabilistic(&self) -> bool {
        self.cells.iter().any(Cell::is_probabilistic)
    }

    /// Total number of candidate values across all cells; used by the cost
    /// model's update-cost term (`p` grows with the number of candidates).
    pub fn total_candidates(&self) -> usize {
        self.cells.iter().map(Cell::candidate_count).sum()
    }

    /// Concatenates two tuples into a joined tuple with combined lineage.
    ///
    /// The lineage records the *base* identities of both sides: if a side
    /// already carries lineage (it is itself a join result), that lineage is
    /// propagated; otherwise the side's own id is used.
    pub fn join(left: &Tuple, right: &Tuple, id: TupleId) -> Tuple {
        let cells = left.cells.iter().chain(&right.cells).cloned().collect();
        let mut lineage = Vec::new();
        if left.lineage.is_empty() {
            lineage.push(left.id);
        } else {
            lineage.extend(left.lineage.iter().copied());
        }
        if right.lineage.is_empty() {
            lineage.push(right.id);
        } else {
            lineage.extend(right.lineage.iter().copied());
        }
        Tuple { id, cells, lineage }
    }

    /// Projects the tuple onto the given column indices (in order).
    pub fn project(&self, indices: &[usize]) -> Result<Tuple> {
        let cells = indices
            .iter()
            .map(|&i| self.cell(i).cloned())
            .collect::<Result<Cells>>()?;
        Ok(Tuple {
            id: self.id,
            cells,
            lineage: self.lineage.clone(),
        })
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] (", self.id)?;
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{cell}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Candidate;

    fn t(id: u64, vals: &[i64]) -> Tuple {
        Tuple::from_values(
            TupleId::new(id),
            vals.iter().map(|v| Value::Int(*v)).collect(),
        )
    }

    #[test]
    fn from_values_builds_determinate_cells() {
        let tup = t(1, &[9001, 42]);
        assert_eq!(tup.arity(), 2);
        assert!(!tup.is_probabilistic());
        assert_eq!(tup.value(0).unwrap(), Value::Int(9001));
        assert!(tup.cell(5).is_err());
    }

    #[test]
    fn join_concatenates_cells_and_collects_base_lineage() {
        let a = t(1, &[9001]);
        let b = t(7, &[123]);
        let joined = Tuple::join(&a, &b, TupleId::new(100));
        assert_eq!(joined.arity(), 2);
        assert_eq!(joined.lineage, vec![TupleId::new(1), TupleId::new(7)]);

        // Joining a join result propagates the deep lineage, not the
        // intermediate id.
        let c = t(9, &[55]);
        let deeper = Tuple::join(&joined, &c, TupleId::new(101));
        assert_eq!(
            deeper.lineage,
            vec![TupleId::new(1), TupleId::new(7), TupleId::new(9)]
        );
    }

    #[test]
    fn project_selects_and_reorders() {
        let tup = t(1, &[10, 20, 30]);
        let p = tup.project(&[2, 0]).unwrap();
        assert_eq!(p.value(0).unwrap(), Value::Int(30));
        assert_eq!(p.value(1).unwrap(), Value::Int(10));
        assert!(tup.project(&[9]).is_err());
    }

    #[test]
    fn clones_share_cells_until_one_side_writes() {
        let original = t(1, &[10, 20, 30]);
        let mut copy = original.clone();
        assert!(copy.cells.shares_storage_with(&original.cells));
        // Reads never detach.
        let _ = copy.cells.iter().count();
        let _ = &copy.cells[1];
        assert!(copy.cells.shares_storage_with(&original.cells));
        // An out-of-bounds write request is refused without copying the row.
        assert!(copy.cell_mut(9).is_err());
        assert!(copy.cells.shares_storage_with(&original.cells));
        // The first write copies the row once; the original is untouched and
        // further writes reuse the private copy.
        *copy.cell_mut(0).unwrap() = Cell::Determinate(Value::Int(11));
        assert!(!copy.cells.shares_storage_with(&original.cells));
        let private = copy.cells.as_ptr();
        copy.cells[2] = Cell::Determinate(Value::Int(31));
        assert_eq!(copy.cells.as_ptr(), private);
        assert_eq!(original.value(0).unwrap(), Value::Int(10));
        assert_eq!(copy.value(0).unwrap(), Value::Int(11));
        // `Debug` stays the plain list the `Vec<Cell>` printed.
        assert_eq!(
            format!("{:?}", original.cells),
            format!("{:?}", original.cells.to_vec())
        );
    }

    #[test]
    fn probabilistic_detection_and_candidate_totals() {
        let mut tup = t(1, &[9001, 1]);
        assert_eq!(tup.total_candidates(), 2);
        *tup.cell_mut(0).unwrap() = Cell::probabilistic(vec![
            Candidate::exact(Value::Int(9001), 0.5),
            Candidate::exact(Value::Int(10001), 0.5),
        ]);
        assert!(tup.is_probabilistic());
        assert_eq!(tup.total_candidates(), 3);
    }
}
