//! Output checks: world digests and repair quality.

use daisy::offline::holoclean::infer_over_daisy_domains;
use daisy::offline::metrics::evaluate_repairs;
use daisy::storage::Table;

/// 64-bit FNV-1a.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a set of tables: names, tuple ids and every cell with its
/// candidates, in table order.
pub fn world_digest<'a>(tables: impl IntoIterator<Item = &'a Table>) -> u64 {
    let mut h = Fnv::new();
    for table in tables {
        h.write(table.name().as_bytes());
        for tuple in table.tuples() {
            h.write(format!("{tuple:?}").as_bytes());
        }
    }
    h.finish()
}

/// Precision, recall and F1 of a repair, and how much of the dirt cleaning
/// reached at all.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
    /// Share of the erroneous cells (dirty value ≠ true value) that are
    /// probabilistic in the final world.  Unlike F1 it is meaningful for
    /// range candidates, which never restore the exact value.
    pub detected: f64,
}

/// Quality of the most-probable-candidate repair of the final world
/// (`infer_over_daisy_domains` + `evaluate_repairs`) against the
/// pre-injection truth, pooled over `(cleaned, dirty, truth)` table triples:
/// correct updates, updates and errors are summed across tables before
/// precision and recall are taken; those are zero when nothing was repaired.
pub fn repair_quality(tables: &[(&Table, &Table, &Table)]) -> Quality {
    let (mut correct, mut updates, mut errors) = (0.0, 0.0, 0.0);
    let (mut erroneous, mut detected) = (0.0, 0.0);
    for (cleaned, dirty, truth) in tables {
        for (d, t) in dirty.tuples().iter().zip(truth.tuples()) {
            for column in 0..d.arity() {
                if d.value(column).ok() != t.value(column).ok() {
                    erroneous += 1.0;
                    let probabilistic = cleaned
                        .tuple(d.id)
                        .and_then(|c| c.cell(column).ok())
                        .is_some_and(|cell| cell.is_probabilistic());
                    detected += f64::from(u8::from(probabilistic));
                }
            }
        }
        let repairs = infer_over_daisy_domains(cleaned, dirty);
        let quality = evaluate_repairs(dirty, truth, &repairs).expect("same-schema tables");
        correct += (quality.precision * quality.updates as f64).round();
        updates += quality.updates as f64;
        errors += quality.errors as f64;
    }
    let detected = if erroneous > 0.0 {
        detected / erroneous
    } else {
        0.0
    };
    if updates == 0.0 || errors == 0.0 || correct == 0.0 {
        return Quality {
            detected,
            ..Quality::default()
        };
    }
    let (precision, recall) = (correct / updates, correct / errors);
    Quality {
        precision,
        recall,
        f1: 2.0 * precision * recall / (precision + recall),
        detected,
    }
}
