//! Property tests for the interposition layer.
//!
//! The headline invariant: **interposition is transparent** — any
//! sequence of guest operations produces identical observable results in
//! direct and interposed modes. Plus robustness: arbitrary register
//! garbage never panics the supervisor (Garfinkel's "boundary
//! conditions" resistance), and the peek/poke word paths reassemble
//! bytes exactly.

use idbox_interpose::{share, AllowAll, GuestCtx, Supervisor, TraceeVm};
use idbox_kernel::{Kernel, OpenFlags, Pid};
use idbox_types::CostModel;
use idbox_vfs::Cred;
use proptest::prelude::*;

/// A random guest operation over a small namespace.
#[derive(Debug, Clone)]
enum Op {
    Write(String, Vec<u8>),
    Read(String),
    Mkdir(String),
    Unlink(String),
    Rename(String, String),
    Stat(String),
    Readdir(String),
    Symlink(String, String),
    Chdir(String),
}

fn name() -> impl Strategy<Value = String> {
    "[ab]{1,2}".prop_map(|s| s)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (name(), proptest::collection::vec(any::<u8>(), 0..600))
            .prop_map(|(n, d)| Op::Write(n, d)),
        name().prop_map(Op::Read),
        name().prop_map(Op::Mkdir),
        name().prop_map(Op::Unlink),
        (name(), name()).prop_map(|(a, b)| Op::Rename(a, b)),
        name().prop_map(Op::Stat),
        name().prop_map(Op::Readdir),
        (name(), name()).prop_map(|(a, b)| Op::Symlink(a, b)),
        name().prop_map(Op::Chdir),
    ]
}

/// Apply one op, rendering its observable outcome as a string.
fn apply(ctx: &mut GuestCtx<'_>, op: &Op) -> String {
    match op {
        Op::Write(p, d) => format!("{:?}", ctx.write_file(p, d)),
        Op::Read(p) => format!("{:?}", ctx.read_file(p)),
        Op::Mkdir(p) => format!("{:?}", ctx.mkdir(p, 0o755)),
        Op::Unlink(p) => format!("{:?}", ctx.unlink(p)),
        Op::Rename(a, b) => format!("{:?}", ctx.rename(a, b)),
        Op::Stat(p) => match ctx.stat(p) {
            // Inode numbers and logical times may differ run to run;
            // compare the stable facts.
            Ok(st) => format!("Ok(kind={:?},size={},nlink={})", st.kind, st.size, st.nlink),
            Err(e) => format!("Err({e:?})"),
        },
        Op::Readdir(p) => match ctx.readdir(p) {
            Ok(es) => format!(
                "Ok({:?})",
                es.iter().map(|e| e.name.clone()).collect::<Vec<_>>()
            ),
            Err(e) => format!("Err({e:?})"),
        },
        Op::Symlink(t, l) => format!("{:?}", ctx.symlink(t, l)),
        Op::Chdir(p) => format!("{:?}", ctx.chdir(p)),
    }
}

fn fresh(mode_interposed: bool) -> (Supervisor, Pid) {
    let kernel = share(Kernel::new());
    let pid = kernel.lock().spawn(Cred::ROOT, "/tmp", "prop").unwrap();
    let sup = if mode_interposed {
        Supervisor::interposed(kernel, Box::new(AllowAll), CostModel::free_switches())
    } else {
        Supervisor::direct(kernel)
    };
    (sup, pid)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Transparency: direct and interposed runs observe the same world.
    #[test]
    fn interposition_is_transparent(ops in proptest::collection::vec(op(), 1..25)) {
        let (mut d_sup, d_pid) = fresh(false);
        let (mut i_sup, i_pid) = fresh(true);
        let mut d_ctx = GuestCtx::new(&mut d_sup, d_pid);
        let mut i_ctx = GuestCtx::new(&mut i_sup, i_pid);
        for op in &ops {
            let direct = apply(&mut d_ctx, op);
            let boxed = apply(&mut i_ctx, op);
            prop_assert_eq!(direct, boxed, "diverged on {:?}", op);
        }
    }

    /// Garbage registers never panic; every outcome is a clean retcode.
    /// Numbers are drawn from the ABI's two ranges (0..=110 and
    /// 1000..=1005) as well as all of `u64`, and arguments as often
    /// from small values (valid addresses and lengths) as from `u64`,
    /// so most cases reach a real decode row.
    #[test]
    fn random_registers_never_panic(
        nr in prop_oneof![any::<u64>(), 0u64..111, 1000u64..1006],
        args in proptest::collection::vec(prop_oneof![any::<u64>(), 0u64..4096], 6),
        interposed in any::<bool>(),
    ) {
        let (mut sup, pid) = fresh(interposed);
        let mut vm = TraceeVm::new();
        vm.load_call(nr, &args);
        sup.execute(pid, &mut vm);
        let _ = vm.ret(); // reached without panicking
    }

    /// Data written through the boxed path (pokes or channel) reads back
    /// byte-identical through either path.
    #[test]
    fn byte_fidelity_across_paths(
        data in proptest::collection::vec(any::<u8>(), 0..10_000),
        offset in 0u64..512,
    ) {
        let (mut sup, pid) = fresh(true);
        let mut ctx = GuestCtx::new(&mut sup, pid);
        let fd = ctx.open("/tmp/fidelity", OpenFlags::rdwr_create(), 0o644).unwrap();
        ctx.pwrite(fd, &data, offset).unwrap();
        let mut back = vec![0u8; data.len()];
        let n = ctx.pread(fd, &mut back, offset).unwrap();
        prop_assert_eq!(n, data.len());
        prop_assert_eq!(&back, &data);
        ctx.close(fd).unwrap();
        // And the direct view agrees.
        let (mut d_sup, d_pid) = fresh(false);
        let mut _d_ctx = GuestCtx::new(&mut d_sup, d_pid);
        let kernel = sup.kernel().clone();
        let mut k = kernel.lock();
        let root = k.vfs().root();
        let whole = k.vfs_mut().read_file(root, "/tmp/fidelity", &Cred::ROOT).unwrap();
        prop_assert_eq!(&whole[offset as usize..], &data[..]);
    }

    /// Cost accounting: traps equal the number of syscalls issued, in
    /// any mix.
    #[test]
    fn trap_count_matches_syscalls(ops in proptest::collection::vec(op(), 1..15)) {
        let (mut sup, pid) = fresh(true);
        let before_kernel = sup.kernel().lock().total_syscalls();
        let mut ctx = GuestCtx::new(&mut sup, pid);
        for op in &ops {
            let _ = apply(&mut ctx, op);
        }
        let report = sup.cost_report();
        let kernel_calls = sup.kernel().lock().total_syscalls() - before_kernel;
        prop_assert_eq!(report.traps, kernel_calls, "every kernel entry is a trap");
        prop_assert_eq!(report.switches, report.traps * 6);
    }
}
