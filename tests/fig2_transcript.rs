//! Figure 2 — the interactive identity-box session, as an integration
//! test spanning kernel, interposer and box.

use idbox::core::IdentityBox;
use idbox::interpose::share;
use idbox::kernel::{Account, Kernel, OpenFlags};
use idbox::types::Errno;
use idbox::vfs::Cred;

#[test]
fn figure2_session_transcript() {
    // The supervising user dthain with a private `secret`.
    let mut k = Kernel::new();
    k.accounts_mut().add(Account::new("dthain", 1000, 1000)).unwrap();
    let dthain = Cred::new(1000, 1000);
    {
        let root = k.vfs().root();
        k.vfs_mut().mkdir(root, "/home/dthain", 0o700, &Cred::ROOT).unwrap();
        k.vfs_mut().chown(root, "/home/dthain", 1000, 1000, &Cred::ROOT).unwrap();
        k.vfs_mut()
            .write_file(root, "/home/dthain/secret", b"private", &dthain)
            .unwrap();
    }
    let kernel = share(k);

    // dthain% parrot_identity_box Freddy tcsh
    let b = IdentityBox::create(kernel.clone(), "Freddy", dthain).unwrap();

    let (code, report) = b
        .run("tcsh", |sh| {
            // freddy% whoami  -> Freddy
            assert_eq!(sh.get_user_name().unwrap().as_str(), "Freddy");

            // The private passwd copy puts Freddy first, so account
            // tools resolve the name; the system file is untouched.
            let passwd =
                String::from_utf8(sh.read_file("/etc/passwd").unwrap()).unwrap();
            assert!(passwd.starts_with("Freddy:x:"));

            // freddy% cat ~dthain/secret -> access denied (no ACL -> the
            // visitor is nobody under Unix rules).
            assert_eq!(
                sh.open("/home/dthain/secret", OpenFlags::rdonly(), 0),
                Err(Errno::EACCES)
            );

            // freddy% vi mydata  (in the fresh home, ACL grants all)
            sh.write_file("mydata", b"freddy's file").unwrap();
            assert_eq!(sh.read_file("mydata").unwrap(), b"freddy's file");

            // The home ACL names Freddy with full rights.
            let acl = String::from_utf8(sh.read_file(".__acl").unwrap()).unwrap();
            assert!(acl.contains("Freddy"));

            // Freddy inherits his identity across fork, and can only
            // signal his own processes.
            let child = sh
                .run_child(|c| {
                    assert_eq!(c.get_user_name().unwrap().as_str(), "Freddy");
                    0
                })
                .unwrap();
            let (reaped, code) = sh.wait().unwrap();
            assert_eq!((reaped, code), (child, 0));
            0
        })
        .unwrap();
    assert_eq!(code, 0);
    assert!(report.traps > 10, "the session must be fully interposed");

    // After the session: Freddy exists nowhere in the account database,
    // and the real /etc/passwd is unchanged.
    let mut k = kernel.lock();
    assert!(k.accounts().lookup("Freddy").is_none());
    let root = k.vfs().root();
    let passwd = k.vfs_mut().read_file(root, "/etc/passwd", &Cred::ROOT).unwrap();
    assert!(!String::from_utf8(passwd).unwrap().contains("Freddy"));
    // But Freddy's data survives for a return visit.
    let data = k
        .vfs_mut()
        .read_file(root, "/home/boxes/Freddy/mydata", &Cred::ROOT)
        .unwrap();
    assert_eq!(data, b"freddy's file");
}
