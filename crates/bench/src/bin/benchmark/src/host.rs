//! Host and process facts read from `/proc` (Linux; zeros or "unknown"
//! where a file is missing).

use std::path::Path;

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn status_field(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").unwrap_or(0.0) / 1024.0
}

/// Resets the kernel's peak-RSS record of this process to its current RSS
/// (`echo 5 > /proc/self/clear_refs`), so a later [`peak_rss_mb`] reports
/// the peak since now.  Returns whether the kernel accepted it; when not,
/// the peak stays the one since process start.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

pub fn involuntary_ctx_switches() -> f64 {
    status_field("nonvoluntary_ctxt_switches").unwrap_or(0.0)
}

/// User and system CPU seconds of this process so far.  `/proc/self/stat`
/// counts in clock ticks; Linux has fixed `USER_HZ` at 100 on every
/// architecture it runs Rust on.
pub fn cpu_seconds() -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // utime and stime are fields 14 and 15 of the line, 12 and 13 after
    // the command name (0-based 11 and 12 here, as `state` is index 0).
    (ticks(11) / 100.0, ticks(12) / 100.0)
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mountinfo`.
pub fn filesystem_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        // "<id> <parent> <dev> <root> <mount point> <opts> ... - <type> <source> ..."
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount_point), Some(fs_type)) = (head.split(' ').nth(4), tail.split(' ').next())
        else {
            continue;
        };
        if path.starts_with(mount_point)
            && best
                .as_ref()
                .is_none_or(|(len, _)| mount_point.len() >= *len)
        {
            best = Some((mount_point.len(), fs_type.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs_type)| fs_type)
}

/// The checked-out commit, read from `.git` without running git; "unknown"
/// outside a git repository (the driver's checkouts are not one).
pub fn git_commit() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let head = d.join(".git/HEAD");
        if let Ok(text) = std::fs::read_to_string(&head) {
            let text = text.trim();
            return match text.strip_prefix("ref: ") {
                Some(reference) => std::fs::read_to_string(d.join(".git").join(reference))
                    .map(|s| s.trim().to_string())
                    .unwrap_or_else(|_| reference.to_string()),
                None => text.to_string(),
            };
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown".into()
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}
