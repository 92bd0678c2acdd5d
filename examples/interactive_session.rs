//! Figure 2 — an interactive identity-box session, replayed.
//!
//! The supervising Unix user `dthain` keeps a private file `secret`;
//! he creates an identity box for the visitor `Freddy`, who is denied
//! the secret but works freely in a fresh home with an ACL naming him.
//!
//! ```text
//! cargo run --example interactive_session
//! ```

use idbox::core::IdentityBox;
use idbox::interpose::share;
use idbox::kernel::{Account, Kernel, OpenFlags};
use idbox::types::Errno;
use idbox::vfs::Cred;

fn main() {
    // --- dthain's machine.
    let mut k = Kernel::new();
    k.accounts_mut().add(Account::new("dthain", 1000, 1000)).unwrap();
    let dthain = Cred::new(1000, 1000);
    {
        let root = k.vfs().root();
        k.vfs_mut().mkdir(root, "/home/dthain", 0o700, &Cred::ROOT).unwrap();
        k.vfs_mut().chown(root, "/home/dthain", 1000, 1000, &Cred::ROOT).unwrap();
        k.vfs_mut()
            .write_file(root, "/home/dthain/secret", b"my private notes\n", &dthain)
            .unwrap();
    }
    let kernel = share(k);

    println!("dthain$ cat ~/secret");
    println!("my private notes");
    println!("dthain$ parrot_identity_box Freddy tcsh");

    // --- Freddy's session inside the box.
    let b = IdentityBox::create(kernel, "Freddy", dthain).unwrap();
    b.run("tcsh", |sh| {
        // whoami
        let me = sh.get_user_name().unwrap();
        println!("freddy$ whoami");
        println!("{me}");
        assert_eq!(me.as_str(), "Freddy");

        // The private passwd copy makes account tools sensible.
        let passwd = String::from_utf8(sh.read_file("/etc/passwd").unwrap()).unwrap();
        assert!(passwd.starts_with("Freddy:x:"));

        // cat ~dthain/secret → access denied (no ACL: nobody rules).
        println!("freddy$ cat /home/dthain/secret");
        match sh.open("/home/dthain/secret", OpenFlags::rdonly(), 0) {
            Err(Errno::EACCES) => println!("cat: /home/dthain/secret: Permission denied"),
            other => panic!("expected denial, got {other:?}"),
        }

        // cd; vi mydata → allowed by the home ACL naming Freddy.
        let home = sh.getcwd().unwrap();
        println!("freddy$ vi mydata   (in {home})");
        sh.write_file("mydata", b"Freddy's work\n").unwrap();
        let back = sh.read_file("mydata").unwrap();
        assert_eq!(back, b"Freddy's work\n");
        println!("freddy$ cat mydata");
        print!("{}", String::from_utf8(back).unwrap());

        // The ACL that made it possible:
        let acl = String::from_utf8(sh.read_file(".__acl").unwrap()).unwrap();
        println!("freddy$ cat .__acl");
        print!("{acl}");
        assert!(acl.contains("Freddy"));
        0
    })
    .unwrap();

    println!("freddy$ exit");
    println!("dthain$ # Freddy never appeared in /etc/passwd:");
    let k = b.kernel().lock();
    assert!(k.accounts().lookup("Freddy").is_none());
    println!("dthain$ grep -c Freddy /etc/passwd   -> 0");
}
