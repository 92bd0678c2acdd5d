//! Property-based invariants of the filesystem under random operation
//! sequences: resolution never escapes the root, link counts stay
//! consistent, inode storage is neither leaked nor double-freed, and
//! path resolution agrees with a reference walker.

use idbox_types::Errno;
use idbox_vfs::path::{self, NAME_MAX, PATH_MAX};
use idbox_vfs::{Cred, FileKind, Ino, Vfs};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

const ROOT: Cred = Cred::ROOT;

/// A random filesystem operation over a small namespace.
#[derive(Debug, Clone)]
enum Op {
    Create(String),
    Mkdir(String),
    Unlink(String),
    Rmdir(String),
    Link(String, String),
    Symlink(String, String),
    Rename(String, String),
    Write(String, Vec<u8>),
}

fn small_path() -> impl Strategy<Value = String> {
    // Paths over a tiny alphabet so collisions (EEXIST, ENOENT...) happen.
    proptest::collection::vec("[abc]", 1..4)
        .prop_map(|parts| format!("/{}", parts.join("/")))
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        small_path().prop_map(Op::Create),
        small_path().prop_map(Op::Mkdir),
        small_path().prop_map(Op::Unlink),
        small_path().prop_map(Op::Rmdir),
        (small_path(), small_path()).prop_map(|(a, b)| Op::Link(a, b)),
        (small_path(), small_path()).prop_map(|(a, b)| Op::Symlink(a, b)),
        (small_path(), small_path()).prop_map(|(a, b)| Op::Rename(a, b)),
        (small_path(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(p, d)| Op::Write(p, d)),
    ]
}

fn apply(v: &mut Vfs, op: &Op) {
    let root = v.root();
    // Every op may legitimately fail; what matters is that failures are
    // clean Errno values and the invariants below keep holding.
    let _ = match op {
        Op::Create(p) => v.create(root, p, 0o644, &ROOT).map(|_| ()),
        Op::Mkdir(p) => v.mkdir(root, p, 0o755, &ROOT).map(|_| ()),
        Op::Unlink(p) => v.unlink(root, p, &ROOT),
        Op::Rmdir(p) => v.rmdir(root, p, &ROOT),
        Op::Link(a, b) => v.link(root, a, b, &ROOT),
        Op::Symlink(a, b) => v.symlink(root, a, b, &ROOT).map(|_| ()),
        Op::Rename(a, b) => v.rename(root, a, b, &ROOT),
        Op::Write(p, d) => v.write_file(root, p, d, &ROOT).map(|_| ()),
    };
}

/// Walk the whole tree and verify structural invariants.
fn check_invariants(v: &mut Vfs) {
    let root = v.root();
    let mut stack = vec!["/".to_string()];
    // Hard links may alias files — and symlinks — so the exact statement
    // is about *distinct inodes*: everything live is reachable and vice
    // versa.
    let mut distinct = std::collections::BTreeSet::new();
    while let Some(dir) = stack.pop() {
        let dir_ino = v.stat(root, &dir, true, &ROOT).unwrap().ino;
        distinct.insert(dir_ino);
        let entries = v.readdir(root, &dir, &ROOT).expect("readdir of live dir");
        // "." must point at the dir itself, ".." at a live dir.
        let dot = entries.iter().find(|e| e.name == ".").expect("has .");
        let self_ino = v.stat(root, &dir, true, &ROOT).unwrap().ino;
        assert_eq!(dot.ino, self_ino, "dot entry of {dir} is wrong");
        assert!(entries.iter().any(|e| e.name == ".."), "{dir} lacks ..");
        for e in entries {
            if e.name == "." || e.name == ".." {
                continue;
            }
            let child = format!(
                "{}/{}",
                if dir == "/" { "" } else { &dir },
                e.name
            );
            match e.kind {
                FileKind::Dir => stack.push(child),
                FileKind::File => {
                    distinct.insert(e.ino);
                    let st = v.stat(root, &child, false, &ROOT).unwrap();
                    assert!(st.nlink >= 1, "file {child} with zero nlink");
                }
                FileKind::Symlink => {
                    distinct.insert(e.ino);
                    // Resolution of the link never panics; it cleanly
                    // succeeds or fails with an Errno.
                    match v.stat(root, &child, true, &ROOT) {
                        Ok(_) | Err(Errno::ENOENT) | Err(Errno::ELOOP)
                        | Err(Errno::ENOTDIR) | Err(Errno::EACCES) => {}
                        Err(e) => panic!("unexpected errno {e} resolving {child}"),
                    }
                }
            }
        }
    }
    // Exact accounting: the live inode count equals the number of
    // distinct reachable inodes — nothing leaked, nothing lost.
    assert_eq!(
        v.live_inodes(),
        distinct.len(),
        "live inodes != distinct reachable inodes"
    );
}

// ----------------------------------------------------------------------
// Reference walker
// ----------------------------------------------------------------------

/// What the reference walker knows about one inode: a model of the tree
/// kept beside the filesystem under test, built from the same calls.
#[derive(Debug)]
enum Node {
    Dir(BTreeMap<String, Ino>),
    File,
    Link(String),
}

#[derive(Debug)]
struct Meta {
    node: Node,
    mode: u16,
    uid: u32,
    gid: u32,
}

/// The filesystem's tree as plain data, resolved by the worklist
/// algorithm the filesystem used before its walk borrowed components:
/// every component copied into a queue, a followed symlink's target
/// spliced in front of the rest, one lookup per step.
#[derive(Debug)]
struct Model {
    root: Ino,
    inodes: HashMap<Ino, Meta>,
}

const SYMLOOP_MAX: u32 = 40;

impl Model {
    fn new(root: Ino) -> Self {
        let entries = BTreeMap::from([(".".to_string(), root), ("..".to_string(), root)]);
        let meta = Meta {
            node: Node::Dir(entries),
            mode: 0o755,
            uid: 0,
            gid: 0,
        };
        Model {
            root,
            inodes: HashMap::from([(root, meta)]),
        }
    }

    fn add(&mut self, dir: Ino, name: &str, ino: Ino, node: Node) {
        let (node, mode) = match node {
            Node::Dir(_) => {
                let entries = BTreeMap::from([(".".to_string(), ino), ("..".to_string(), dir)]);
                (Node::Dir(entries), 0o755)
            }
            Node::File => (Node::File, 0o644),
            link => (link, 0o777),
        };
        self.inodes.insert(
            ino,
            Meta {
                node,
                mode,
                uid: 0,
                gid: 0,
            },
        );
        match &mut self.inodes.get_mut(&dir).expect("parent modelled").node {
            Node::Dir(entries) => entries.insert(name.to_string(), ino),
            _ => panic!("parent is not a directory"),
        };
    }

    fn meta(&self, ino: Ino) -> Result<&Meta, Errno> {
        self.inodes.get(&ino).ok_or(Errno::ENOENT)
    }

    fn is_dir(&self, ino: Ino) -> Result<bool, Errno> {
        Ok(matches!(self.meta(ino)?.node, Node::Dir(_)))
    }

    fn may_search(&self, ino: Ino, cred: &Cred) -> Result<(), Errno> {
        let m = self.meta(ino)?;
        let triad = if cred.uid == 0 {
            return Ok(());
        } else if cred.uid == m.uid {
            m.mode >> 6
        } else if cred.gid == m.gid {
            m.mode >> 3
        } else {
            m.mode
        };
        if triad & 1 == 1 {
            Ok(())
        } else {
            Err(Errno::EACCES)
        }
    }

    fn lookup(&self, dir: Ino, name: &str) -> Result<Option<Ino>, Errno> {
        match &self.meta(dir)?.node {
            Node::Dir(entries) => Ok(entries.get(name).copied()),
            _ => Err(Errno::ENOTDIR),
        }
    }

    fn link_target(&self, ino: Ino) -> Result<Option<String>, Errno> {
        Ok(match &self.meta(ino)?.node {
            Node::Link(t) => Some(t.clone()),
            _ => None,
        })
    }

    fn resolve(&self, start: Ino, p: &str, follow_last: bool, cred: &Cred) -> Result<Ino, Errno> {
        if p.len() > PATH_MAX {
            return Err(Errno::ENAMETOOLONG);
        }
        let mut cur = if path::is_absolute(p) {
            self.root
        } else {
            start
        };
        let mut budget = SYMLOOP_MAX;
        let mut work: Vec<String> = path::components(p).map(str::to_string).collect();
        let mut i = 0;
        while i < work.len() {
            let comp = work[i].clone();
            i += 1;
            if comp.len() > NAME_MAX {
                return Err(Errno::ENAMETOOLONG);
            }
            if !self.is_dir(cur)? {
                return Err(Errno::ENOTDIR);
            }
            self.may_search(cur, cred)?;
            let next = self.lookup(cur, &comp)?.ok_or(Errno::ENOENT)?;
            let is_last = i == work.len();
            if let Some(target) = self.link_target(next)? {
                if !is_last || follow_last {
                    if budget == 0 {
                        return Err(Errno::ELOOP);
                    }
                    budget -= 1;
                    let mut rest: Vec<String> =
                        path::components(&target).map(str::to_string).collect();
                    rest.extend(work.drain(i..));
                    work = rest;
                    i = 0;
                    if path::is_absolute(&target) {
                        cur = self.root;
                    }
                    continue;
                }
            }
            cur = next;
        }
        Ok(cur)
    }

    fn resolve_parent(&self, start: Ino, p: &str, cred: &Cred) -> Result<(Ino, String), Errno> {
        if p.len() > PATH_MAX {
            return Err(Errno::ENAMETOOLONG);
        }
        let (parent, name) = path::split_parent(p).ok_or(Errno::EINVAL)?;
        if name.len() > NAME_MAX {
            return Err(Errno::ENAMETOOLONG);
        }
        let dir = self.resolve(start, parent, true, cred)?;
        if !self.is_dir(dir)? {
            return Err(Errno::ENOTDIR);
        }
        Ok((dir, name.to_string()))
    }

    #[allow(clippy::type_complexity)]
    fn resolve_entry(
        &self,
        start: Ino,
        p: &str,
        cred: &Cred,
    ) -> Result<(Ino, String, Option<Ino>), Errno> {
        let mut budget = SYMLOOP_MAX;
        let mut cur_start = start;
        let mut cur_path = p.to_string();
        loop {
            let (dir, name) = self.resolve_parent(cur_start, &cur_path, cred)?;
            self.may_search(dir, cred)?;
            if name == "." || name == ".." {
                let ino = self.resolve(cur_start, &cur_path, true, cred)?;
                return Ok((dir, name, Some(ino)));
            }
            match self.lookup(dir, &name)? {
                None => return Ok((dir, name, None)),
                Some(ino) => match self.link_target(ino)? {
                    Some(target) => {
                        if budget == 0 {
                            return Err(Errno::ELOOP);
                        }
                        budget -= 1;
                        cur_path = target;
                        cur_start = dir;
                    }
                    None => return Ok((dir, name, Some(ino))),
                },
            }
        }
    }
}

/// Names nodes are created under (collisions are skipped).
const NAMES: [&str; 4] = ["a", "b", "c", "d"];

/// Components of symlink targets and probe paths: names, `.`, `..`, an
/// empty one (a doubled slash), and one longer than `NAME_MAX`.
fn comp(i: usize) -> String {
    match i {
        0..=3 => NAMES[i].to_string(),
        4 => ".".to_string(),
        5 => "..".to_string(),
        6 => String::new(),
        _ => "n".repeat(NAME_MAX + 1),
    }
}

/// A path from component choices: `(absolute, components, trailing slash)`.
fn build_path((abs, comps, trailing): &(bool, Vec<usize>, bool)) -> String {
    let mut p = if *abs { "/".to_string() } else { String::new() };
    p.push_str(&comps.iter().map(|&c| comp(c)).collect::<Vec<_>>().join("/"));
    if *trailing {
        p.push('/');
    }
    p
}

fn path_spec() -> impl Strategy<Value = (bool, Vec<usize>, bool)> {
    (
        any::<bool>(),
        proptest::collection::vec(0usize..8, 0..5),
        any::<bool>(),
    )
}

/// Directory modes and owners: together they make directories some
/// visitor can search and some it cannot (owner, group and other
/// triads all matter).
const MODES: [u16; 5] = [0o755, 0o700, 0o711, 0o750, 0o000];
const OWNERS: [(u32, u32); 3] = [(0, 0), (1000, 1000), (2000, 1000)];

/// Build the same tree in `v` and in the model: a fixed prelude of the
/// awkward cases, then random nodes (directories with random modes and
/// owners, files, symlinks to random targets).
fn build_tree(
    v: &Vfs,
    nodes: &[(usize, usize, u8, usize, usize)],
    targets: &[(bool, Vec<usize>, bool)],
) -> (Model, Vec<Ino>) {
    const ROOT: Cred = Cred::ROOT;
    let root = v.root();
    let mut m = Model::new(root);
    let mut dirs = vec![root];
    let mut all = vec![root];
    let link = |m: &mut Model, all: &mut Vec<Ino>, dir: Ino, name: &str, target: &str| {
        let ino = v.symlink(dir, target, name, &ROOT).unwrap();
        m.add(dir, name, ino, Node::Link(target.to_string()));
        all.push(ino);
    };
    // Loops (absolute, relative, self), a link to `/`, a `..` link, a
    // chain through the `/` link, a target with an over-long component,
    // an empty target, a file used as a directory, and links into and
    // to a directory only its owner may search.
    for (name, target) in [
        ("loop1", "/loop2"),
        ("loop2", "loop1"),
        ("self", "self"),
        ("up", "/"),
        ("dotdot", ".."),
        ("chain", "up/up/file"),
        ("empty", ""),
        ("viafile", "file/a"),
        ("through", "/locked/a"),
        ("lockdir", "locked"),
    ] {
        link(&mut m, &mut all, root, name, target);
    }
    link(&mut m, &mut all, root, "long", &format!("a/{}", comp(7)));
    let file = v.create(root, "file", 0o644, &ROOT).unwrap();
    m.add(root, "file", file, Node::File);
    let locked = v.mkdir(root, "locked", 0o755, &ROOT).unwrap();
    m.add(root, "locked", locked, Node::Dir(BTreeMap::new()));
    let inner = v.create(locked, "a", 0o644, &ROOT).unwrap();
    m.add(locked, "a", inner, Node::File);
    v.chmod(root, "/locked", 0o700, &ROOT).unwrap();
    m.inodes.get_mut(&locked).unwrap().mode = 0o700;
    all.extend([file, locked, inner]);
    dirs.push(locked);

    for (i, &(parent, name, kind, mode, owner)) in nodes.iter().enumerate() {
        let dir = dirs[parent % dirs.len()];
        let name = NAMES[name];
        if m.lookup(dir, name).unwrap().is_some() {
            continue;
        }
        let ino = match kind {
            0 => {
                let ino = v.mkdir(dir, name, 0o755, &ROOT).unwrap();
                m.add(dir, name, ino, Node::Dir(BTreeMap::new()));
                let (uid, gid) = OWNERS[owner];
                v.chown(dir, name, uid, gid, &ROOT).unwrap();
                v.chmod(dir, name, MODES[mode], &ROOT).unwrap();
                let meta = m.inodes.get_mut(&ino).unwrap();
                (meta.mode, meta.uid, meta.gid) = (MODES[mode], uid, gid);
                dirs.push(ino);
                ino
            }
            1 => {
                let ino = v.create(dir, name, 0o644, &ROOT).unwrap();
                m.add(dir, name, ino, Node::File);
                ino
            }
            _ => {
                let target = build_path(&targets[i % targets.len()]);
                let ino = v.symlink(dir, &target, name, &ROOT).unwrap();
                m.add(dir, name, ino, Node::Link(target));
                ino
            }
        };
        all.push(ino);
    }
    // A start directory that no longer exists (a stale cwd).
    all.push(Ino(1 << 40));
    (m, all)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_ops_preserve_invariants(ops in proptest::collection::vec(op(), 1..60)) {
        let mut v = Vfs::new();
        for op in &ops {
            apply(&mut v, op);
        }
        check_invariants(&mut v);
    }

    #[test]
    fn resolution_never_escapes_root(
        ops in proptest::collection::vec(op(), 1..30),
        probe in proptest::collection::vec("[abc.]{1,4}", 1..6),
    ) {
        let mut v = Vfs::new();
        for op in &ops {
            apply(&mut v, op);
        }
        // A path with arbitrary ".." runs must never produce an inode
        // outside the tree (it either resolves to something reachable or
        // fails cleanly).
        let wild = format!("/{}", probe.join("/.."));
        match v.resolve(v.root(), &wild, true, &Cred::ROOT) {
            Ok(ino) => {
                // The ino must be reachable from the root by construction;
                // at minimum fstat works and the kind is sane.
                let st = v.fstat(ino).unwrap();
                prop_assert!(matches!(
                    st.kind,
                    FileKind::Dir | FileKind::File | FileKind::Symlink
                ));
            }
            Err(e) => {
                prop_assert!(matches!(
                    e,
                    Errno::ENOENT | Errno::ENOTDIR | Errno::ELOOP | Errno::EACCES
                ));
            }
        }
    }

    #[test]
    fn write_then_read_roundtrip(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        off in 0u64..1024,
    ) {
        let v = Vfs::new();
        let ino = v.create(v.root(), "/f", 0o644, &Cred::ROOT).unwrap();
        v.write_at(ino, off, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        let n = v.read_into(ino, off, &mut buf).unwrap();
        prop_assert_eq!(n, data.len());
        prop_assert_eq!(&buf, &data);
        // Gap is zero-filled.
        let st = v.fstat(ino).unwrap();
        prop_assert_eq!(st.size, off + data.len() as u64);
    }

    /// The dentry cache is invisible: a cached filesystem and an
    /// uncached one driven through the same random interleaving of
    /// rename/unlink/link/symlink/mkdir/create answer every resolution
    /// probe identically — including symlink loops (the fixed prelude
    /// plants one), dangling symlinks, and negative lookups — and the
    /// cached instance answers the same twice in a row (the second
    /// probe is the warm-cache path).
    #[test]
    fn cached_and_uncached_resolution_agree(
        ops in proptest::collection::vec(op(), 1..30),
        probes in proptest::collection::vec("[abc.]{1,4}(/[abc.]{1,4}){0,2}", 1..5),
    ) {
        let mut cached = Vfs::new();
        let mut uncached = Vfs::new();
        uncached.set_dentry_cache(false);
        for v in [&mut cached, &mut uncached] {
            let root = v.root();
            // Symlink loop and dangling link, guaranteed present.
            v.symlink(root, "/loopb", "/loopa", &ROOT).unwrap();
            v.symlink(root, "/loopa", "/loopb", &ROOT).unwrap();
            v.symlink(root, "/nowhere/x", "/dangle", &ROOT).unwrap();
        }
        let mut all_probes: Vec<String> =
            probes.iter().map(|p| format!("/{p}")).collect();
        all_probes.push("/loopa".into());
        all_probes.push("/dangle".into());
        let visitor = Cred::new(1000, 1000);
        for op in &ops {
            apply(&mut cached, op);
            apply(&mut uncached, op);
            for p in &all_probes {
                for cred in [&ROOT, &visitor] {
                    for follow in [true, false] {
                        let want = uncached.resolve(uncached.root(), p, follow, cred);
                        // Twice: the first fill may warm the cache, the
                        // second must hit it — both must agree.
                        prop_assert_eq!(
                            cached.resolve(cached.root(), p, follow, cred),
                            want, "resolve({}, follow={})", p, follow
                        );
                        prop_assert_eq!(
                            cached.resolve(cached.root(), p, follow, cred),
                            want, "warm resolve({}, follow={})", p, follow
                        );
                    }
                    let want = uncached.resolve_entry(uncached.root(), p, cred);
                    prop_assert_eq!(
                        cached.resolve_entry(cached.root(), p, cred),
                        want.clone(), "resolve_entry({})", p
                    );
                    prop_assert_eq!(
                        cached.resolve_entry(cached.root(), p, cred),
                        want, "warm resolve_entry({})", p
                    );
                }
            }
        }
        // The probing above must actually have exercised the cache.
        let (hits, _) = cached.dentry_stats();
        prop_assert!(hits > 0, "probes never hit the dentry cache");
    }

    #[test]
    fn unlink_frees_exactly_when_last_link_dies(n_links in 1usize..6) {
        let v = Vfs::new();
        let before = v.live_inodes();
        v.create(v.root(), "/f0", 0o644, &Cred::ROOT).unwrap();
        for i in 1..n_links {
            v.link(v.root(), "/f0", &format!("/f{i}"), &Cred::ROOT).unwrap();
        }
        prop_assert_eq!(v.live_inodes(), before + 1);
        for i in 0..n_links {
            v.unlink(v.root(), &format!("/f{i}"), &Cred::ROOT).unwrap();
            let expect = if i + 1 == n_links { before } else { before + 1 };
            prop_assert_eq!(v.live_inodes(), expect);
        }
    }

    /// Resolution agrees with the reference walker on random trees:
    /// `resolve` (following the last component and not), `resolve_parent`
    /// and `resolve_entry` return the same inode, name and errno for
    /// every probe, start directory and caller, on a cached filesystem
    /// (cold and warm) and on an uncached one. The trees mix relative,
    /// `..`, chained and `/` symlink targets, loops, directories some
    /// callers cannot search, files used as directories and over-long
    /// components.
    #[test]
    fn resolution_matches_reference_walker(
        nodes in proptest::collection::vec((0usize..64, 0usize..4, 0u8..4, 0usize..5, 0usize..3), 4..28),
        targets in proptest::collection::vec(path_spec(), 1..8),
        probes in proptest::collection::vec((0usize..64, path_spec()), 1..10),
    ) {
        let cached = Vfs::new();
        let mut uncached = Vfs::new();
        uncached.set_dentry_cache(false);
        let (model, inos) = build_tree(&cached, &nodes, &targets);
        let (_, twin) = build_tree(&uncached, &nodes, &targets);
        prop_assert_eq!(&inos, &twin);
        let mut paths: Vec<(Ino, String)> = probes
            .iter()
            .map(|(start, spec)| (inos[start % inos.len()], build_path(spec)))
            .collect();
        let root = cached.root();
        for fixed in [
            "/loop1", "/loop2/x", "/self", "/up", "/up/..", "/dotdot/file", "/chain",
            "/chain/x", "/long", "/empty", "/empty/file", "/viafile", "/file/a",
            "/through", "/lockdir/a", "/locked/a", "locked/../file", "",
        ] {
            paths.push((root, fixed.to_string()));
        }
        paths.push((root, "/a".repeat(PATH_MAX / 2 + 1)));
        let creds = [Cred::ROOT, Cred::new(1000, 1000), Cred::new(3000, 3000)];
        for (start, p) in &paths {
            for cred in &creds {
                for v in [&cached, &cached, &uncached] {
                    for follow in [true, false] {
                        prop_assert_eq!(
                            v.resolve(*start, p, follow, cred),
                            model.resolve(*start, p, follow, cred),
                            "resolve({:?}, {:?}, follow={}, uid={})", start, p, follow, cred.uid
                        );
                    }
                    prop_assert_eq!(
                        v.resolve_parent(*start, p, cred).map(|(d, n)| (d, n.to_string())),
                        model.resolve_parent(*start, p, cred),
                        "resolve_parent({:?}, {:?}, uid={})", start, p, cred.uid
                    );
                    prop_assert_eq!(
                        v.resolve_entry(*start, p, cred).map(|(d, n, i)| (d, n.into_owned(), i)),
                        model.resolve_entry(*start, p, cred),
                        "resolve_entry({:?}, {:?}, uid={})", start, p, cred.uid
                    );
                }
            }
        }
    }
}
