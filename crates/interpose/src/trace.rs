//! Forensic tracing of trapped system calls.
//!
//! Section 9 suggests the identity box "could be used for forensic
//! purposes, recording the objects accessed and the activities taken by
//! the untrusted user". The supervisor sees every call and its outcome,
//! so the record is complete by construction: attach a [`TraceSink`] and
//! every trapped syscall appends one strace-like [`TraceRecord`].

use idbox_kernel::{Pid, Syscall, SysRet};
use idbox_types::{Errno, SysResult};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// One recorded system call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Sequence number within the sink.
    pub seq: u64,
    /// The calling process.
    pub pid: Pid,
    /// Syscall name.
    pub name: &'static str,
    /// The call's arguments as rendered: the paths it names, then any
    /// other detail (open mode, fd and length...).
    pub detail: String,
    /// The paths the call names ([`Syscall::paths`]), in order.
    pub paths: Vec<String>,
    /// Rendered outcome: `ok`, `= <num>`, or the errno.
    pub outcome: String,
    /// True when the call failed (including policy denials).
    pub denied: bool,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>5}] {} {}({}) {}",
            self.seq, self.pid, self.name, self.detail, self.outcome
        )
    }
}

/// A shared, append-only record of everything a supervisor's processes
/// did. Clone the handle to keep reading after the box is running.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    inner: Arc<Mutex<Vec<TraceRecord>>>,
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// Record one call (used by the supervisor).
    pub fn record(&self, pid: Pid, call: &Syscall, result: &SysResult<SysRet>) {
        let mut log = self.inner.lock();
        let seq = log.len() as u64;
        log.push(make_record(seq, pid, call, result));
    }

    /// Snapshot all records.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.inner.lock().clone()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Only the denied operations — the forensic highlights.
    pub fn denials(&self) -> Vec<TraceRecord> {
        self.inner.lock().iter().filter(|r| r.denied).cloned().collect()
    }

    /// The distinct absolute paths the calls named, in first-access
    /// order — "recording the objects accessed".
    pub fn objects_accessed(&self) -> Vec<String> {
        let log = self.inner.lock();
        let mut seen = std::collections::BTreeSet::new();
        log.iter()
            .flat_map(|r| &r.paths)
            .filter(|p| p.starts_with('/') && seen.insert(p.as_str()))
            .cloned()
            .collect()
    }

    /// Render the whole log, one line per record.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for r in self.inner.lock().iter() {
            s.push_str(&r.to_string());
            s.push('\n');
        }
        s
    }
}

/// The rendered arguments: the paths a call names, arrow-joined, plus
/// what else identifies the operation.
fn call_detail(call: &Syscall, paths: &[String]) -> String {
    use Syscall::*;
    let named = paths.join(" -> ");
    match call {
        Open(_, flags, _) => format!("{named} [{}]", if flags.write { "w" } else { "r" }),
        Chown(_, uid, gid) => format!("{named} -> {uid}:{gid}"),
        Read(fd, len) | Pread(fd, len, _) | Preadx(fd, len, _) => format!("fd{fd}, {len}b"),
        Write(fd, data) | Pwrite(fd, data, _) => format!("fd{fd}, {}b", data.len()),
        Close(fd) | Dup(fd) | Fstat(fd) => format!("fd{fd}"),
        Lseek(fd, off, _) => format!("fd{fd}, {off}"),
        Kill(pid, sig) => format!("{pid}, {sig:?}"),
        Getenv(name) => name.clone(),
        Exit(code) => format!("{code}"),
        Umask(m) => format!("{m:o}"),
        _ => named,
    }
}

fn make_record(seq: u64, pid: Pid, call: &Syscall, result: &SysResult<SysRet>) -> TraceRecord {
    let (outcome, denied) = match result {
        Ok(SysRet::Num(n)) => (format!("= {n}"), false),
        Ok(_) => ("= ok".to_string(), false),
        Err(e @ (Errno::EACCES | Errno::EPERM)) => (format!("= {e:?} DENIED"), true),
        Err(e) => (format!("= {e:?}"), false),
    };
    let paths: Vec<String> = call.paths().map(str::to_owned).collect();
    TraceRecord {
        seq,
        pid,
        name: call.name(),
        detail: call_detail(call, &paths),
        paths,
        outcome,
        denied,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idbox_kernel::OpenFlags;

    fn rec(call: Syscall, result: SysResult<SysRet>) -> TraceRecord {
        make_record(0, Pid(7), &call, &result)
    }

    #[test]
    fn open_records_path_and_mode() {
        let r = rec(
            Syscall::Open("/etc/passwd".into(), OpenFlags::rdonly(), 0),
            Ok(SysRet::Num(3)),
        );
        assert_eq!(r.detail, "/etc/passwd [r]");
        assert_eq!(r.outcome, "= 3");
        assert!(!r.denied);
    }

    #[test]
    fn denials_are_flagged() {
        let r = rec(
            Syscall::Unlink("/home/dthain/secret".into()),
            Err(Errno::EACCES),
        );
        assert!(r.denied);
        assert!(r.outcome.contains("DENIED"));
        let r = rec(Syscall::Stat("/missing".into()), Err(Errno::ENOENT));
        assert!(!r.denied, "ENOENT is not a policy denial");
    }

    #[test]
    fn sink_accumulates_and_filters() {
        let sink = TraceSink::new();
        sink.record(Pid(1), &Syscall::Getpid, &Ok(SysRet::Num(1)));
        sink.record(
            Pid(1),
            &Syscall::Open("/a".into(), OpenFlags::rdonly(), 0),
            &Err(Errno::EACCES),
        );
        sink.record(
            Pid(1),
            &Syscall::Rename("/b".into(), "/c".into()),
            &Ok(SysRet::Unit),
        );
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.denials().len(), 1);
        assert_eq!(sink.objects_accessed(), ["/a", "/b", "/c"]);
        let text = sink.render();
        assert!(text.contains("open(/a [r]) = EACCES DENIED"), "{text}");
    }

    #[test]
    fn objects_are_the_paths_a_call_names() {
        // Names that contain the render's own separators.
        let sink = TraceSink::new();
        sink.record(
            Pid(1),
            &Syscall::Open("/tmp/a -> b".into(), OpenFlags::rdonly(), 0),
            &Ok(SysRet::Num(3)),
        );
        sink.record(
            Pid(1),
            &Syscall::Rename("/tmp/x [1]".into(), "/tmp/y".into()),
            &Ok(SysRet::Unit),
        );
        sink.record(Pid(1), &Syscall::Chown("/tmp/y".into(), 1, 2), &Ok(SysRet::Unit));
        assert_eq!(sink.objects_accessed(), ["/tmp/a -> b", "/tmp/x [1]", "/tmp/y"]);
        // The rendered line is unchanged.
        assert!(sink.render().contains("open(/tmp/a -> b [r]) = 3"));
    }

    #[test]
    fn display_format() {
        let r = rec(Syscall::Exec("/work/sim.exe".into()), Ok(SysRet::Unit));
        assert_eq!(r.to_string(), "[    0] pid7 exec(/work/sim.exe) = ok");
    }
}
