//! `idbox_shell` — the `parrot_identity_box` experience: an interactive
//! shell whose every command executes inside an identity box.
//!
//! ```text
//! cargo run --bin idbox_shell -- [IDENTITY]        # interactive
//! echo -e "whoami\nls" | cargo run --bin idbox_shell -- Freddy
//! ```

use idbox::interpose::share;
use idbox::kernel::{Account, Kernel};
use idbox::shell::BoxShell;
use idbox::vfs::Cred;
use std::io::{BufRead, Write};

fn main() {
    let identity = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "Freddy".to_string());

    // A demonstration machine: operator `dthain` with a private file,
    // so denials have something to deny.
    let mut k = Kernel::new();
    k.accounts_mut()
        .add(Account::new("dthain", 1000, 1000))
        .expect("fresh kernel");
    {
        let root = k.vfs().root();
        k.vfs_mut()
            .mkdir(root, "/home/dthain", 0o700, &Cred::ROOT)
            .unwrap();
        k.vfs_mut()
            .chown(root, "/home/dthain", 1000, 1000, &Cred::ROOT)
            .unwrap();
        k.vfs_mut()
            .write_file(
                root,
                "/home/dthain/secret",
                b"the supervisor's private notes\n",
                &Cred::new(1000, 1000),
            )
            .unwrap();
    }
    let kernel = share(k);
    let ibox = idbox::core::IdentityBox::create(kernel, identity.as_str(), Cred::new(1000, 1000))
        .expect("create identity box");
    let mut shell = BoxShell::new(&ibox).expect("open session");

    eprintln!("identity box shell — you are {}", shell.identity());
    eprintln!("(try: whoami, ls, write f hello, cat f, cat /home/dthain/secret, help)");

    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    loop {
        print!("{}$ ", shell.identity());
        let _ = stdout.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let line = line.trim();
        if line == "exit" || line == "quit" {
            break;
        }
        print!("{}", shell.exec_line(line));
    }
    eprintln!("session closed; no local account was ever created.");
}
