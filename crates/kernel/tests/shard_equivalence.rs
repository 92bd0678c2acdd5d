//! Cross-shard correctness: sharding is a pure concurrency
//! optimization, never a semantic change.
//!
//! `Kernel::with_shards(1)` is, by construction, a behavioral twin of
//! the old single-lock kernel: one process shard, one vfs shard, every
//! syscall serialized through the same locks the monolithic kernel
//! held. This property test replays identical random syscall
//! transcripts — process lifecycle, fd traffic, pipes, directory
//! churn, renames, symlinks — against a single-shard kernel and a
//! deliberately odd-sized multi-shard one (5 shards, so pid and inode
//! hashing scatter unevenly), and requires byte-identical results at
//! every step. Pid allocation, inode numbering, zombie reaping order,
//! and pipe-slot reuse are all global allocators precisely so this
//! holds.
//!
//! Uses the `idbox-testkit` runner, so `IDBOX_PROP_SEED` (pinned in
//! `ci.sh`) reproduces a failing transcript exactly.

use idbox_kernel::{Kernel, OpenFlags, Pid, Signal, Syscall, SysRet, Whence};
use proptest::{run_cases, PropError, ProptestConfig, TestRng};
use idbox_vfs::Cred;

const NPROCS: u64 = 6;
const NFDS: u64 = 8;
const NPATHS: u64 = 5;

fn file_path(i: u64) -> String {
    format!("/tmp/f{i}")
}

fn dir_path(i: u64) -> String {
    format!("/tmp/d{i}")
}

/// Draw one syscall, with the caller picked from the replay's live pid
/// list. Both kernels see the exact same call because their pid lists
/// evolve identically (asserted after every step).
fn random_call(rng: &mut TestRng, pids: &[Pid]) -> (Pid, Syscall) {
    let caller = pids[rng.below(NPROCS) as usize % pids.len()];
    let call = match rng.below(23) {
        0 => Syscall::Fork,
        1 => Syscall::Exit(rng.below(100) as i32),
        2 => Syscall::Wait,
        3 => {
            let target = pids[rng.below(NPROCS) as usize % pids.len()];
            Syscall::Kill(target, Signal::Term)
        }
        4 => {
            let flags = if rng.bool() {
                OpenFlags::rdwr_create()
            } else {
                OpenFlags::rdonly()
            };
            Syscall::Open(file_path(rng.below(NPATHS)), flags, 0o644)
        }
        5 => Syscall::Close(rng.below(NFDS) as usize),
        6 => Syscall::Read(rng.below(NFDS) as usize, rng.in_range(1, 64) as usize),
        7 => {
            let byte = rng.below(256) as u8;
            Syscall::Write(rng.below(NFDS) as usize, vec![byte; 3].into())
        }
        8 => Syscall::Lseek(
            rng.below(NFDS) as usize,
            rng.in_range(0, 64) as i64 - 8,
            Whence::Set,
        ),
        9 => Syscall::Dup(rng.below(NFDS) as usize),
        10 => Syscall::Fstat(rng.below(NFDS) as usize),
        11 => Syscall::Stat(file_path(rng.below(NPATHS))),
        12 => Syscall::Mkdir(dir_path(rng.below(NPATHS)), 0o755),
        13 => Syscall::Rmdir(dir_path(rng.below(NPATHS))),
        14 => Syscall::Unlink(file_path(rng.below(NPATHS))),
        15 => Syscall::Rename(file_path(rng.below(NPATHS)), file_path(rng.below(NPATHS))),
        16 => Syscall::Symlink(
            file_path(rng.below(NPATHS)),
            format!("/tmp/ln{}", rng.below(NPATHS)),
        ),
        17 => Syscall::Readdir("/tmp".into()),
        18 => Syscall::Chdir(dir_path(rng.below(NPATHS))),
        19 => Syscall::Pipe,
        20 => Syscall::Umask(rng.below(0o777) as u16),
        21 => Syscall::Getcwd,
        _ => Syscall::SigPending,
    };
    (caller, call)
}

/// Apply the result to the replay's pid bookkeeping (fork grows the
/// list, wait removes the reaped child).
fn track(pids: &mut Vec<Pid>, call: &Syscall, result: &Result<SysRet, idbox_types::Errno>) {
    match (call, result) {
        (Syscall::Fork, Ok(SysRet::Num(child))) => pids.push(Pid(*child as u32)),
        (Syscall::Wait, Ok(SysRet::Reaped(child, _))) => {
            pids.retain(|&q| q != *child);
        }
        _ => {}
    }
}

/// The same syscall transcript against 1 shard and 5 shards yields
/// identical results at every single step — pids, fds, errnos, stat
/// buffers, directory listings, everything.
#[test]
fn sharded_kernel_is_transcript_identical_to_single_shard() {
    run_cases(
        ProptestConfig::with_cases(48),
        "shard_equivalence::transcript",
        |rng| {
            let mut mono = Kernel::with_shards(1);
            let mut sharded = Kernel::with_shards(5);
            let cred = Cred::new(1000, 1000);
            let pid_m = mono.spawn(cred, "/tmp", "eq").unwrap();
            let pid_s = sharded.spawn(cred, "/tmp", "eq").unwrap();
            if pid_m != pid_s {
                return Err(PropError::Fail(format!(
                    "spawn diverged before any ops ran: {pid_m} vs {pid_s}"
                )));
            }
            let mut pids_m: Vec<Pid> = vec![pid_m];
            let mut pids_s: Vec<Pid> = vec![pid_s];

            let nops = rng.in_range(1, 120);
            for step in 0..nops {
                let draw = rng.next_u64();
                let (pm, call_m) = random_call(&mut TestRng::new(draw), &pids_m);
                let (ps, call_s) = random_call(&mut TestRng::new(draw), &pids_s);
                if pm != ps || call_m != call_s {
                    return Err(PropError::Fail(format!(
                        "step {step}: generated calls diverged — pid lists differ"
                    )));
                }
                let rm = mono.syscall(pm, call_m.clone());
                let rs = sharded.syscall(ps, call_s.clone());
                if format!("{rm:?}") != format!("{rs:?}") {
                    return Err(PropError::Fail(format!(
                        "step {step}: {call_m:?} from {pm} diverged:\n  \
                         shards=1: {rm:?}\n  shards=5: {rs:?}"
                    )));
                }
                track(&mut pids_m, &call_m, &rm);
                track(&mut pids_s, &call_s, &rs);
                if pids_m != pids_s {
                    return Err(PropError::Fail(format!(
                        "step {step}: live pid sets diverged: {pids_m:?} vs {pids_s:?}"
                    )));
                }
            }

            // Terminal state agrees too: same process table, same
            // inode population.
            if mono.pids() != sharded.pids() {
                return Err(PropError::Fail(format!(
                    "final pid tables diverged: {:?} vs {:?}",
                    mono.pids(),
                    sharded.pids()
                )));
            }
            if mono.vfs().live_inodes() != sharded.vfs().live_inodes() {
                return Err(PropError::Fail(format!(
                    "final inode counts diverged: {} vs {}",
                    mono.vfs().live_inodes(),
                    sharded.vfs().live_inodes()
                )));
            }
            Ok(())
        },
    );
}
