//! Shared by the integration tests that run `ssxdb serve` as a child
//! process: one launcher, and a guard that kills every host it started
//! however its test ends, so a failed assertion never leaves a host
//! running after the test binary exits.

// Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use ssxdb::core::protocol::Request;
use ssxdb::core::{MuxPool, Transport};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// `ssxdb serve` processes a test started, with their addresses, killed
/// when the guard drops.
#[derive(Default)]
pub struct Hosts(Vec<(String, Child)>);

impl Hosts {
    /// Starts `ssxdb serve --p 83 --e 1 --addr <free port> <args…>` in
    /// `dir`, waits up to 5 s for its listener, and keeps the child.
    /// Returns the host's address.
    pub fn serve(&mut self, dir: &Path, args: &[&str]) -> String {
        // Pick a free port by binding and releasing.
        let port = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port();
        let addr = format!("127.0.0.1:{port}");
        let child = Command::new(env!("CARGO_BIN_EXE_ssxdb"))
            .args(["serve", "--p", "83", "--e", "1", "--addr", &addr])
            .args(args)
            .current_dir(dir)
            .stdout(Stdio::null())
            .spawn()
            .unwrap();
        self.0.push((addr.clone(), child));
        let up = (0..50).any(|attempt| {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(100));
            }
            TcpStream::connect(&addr).is_ok()
        });
        assert!(up, "host {args:?} at {addr} did not come up");
        addr
    }

    /// The `i`-th host started, in start order.
    pub fn child(&mut self, i: usize) -> &mut Child {
        &mut self.0[i].1
    }

    /// Sends the `i`-th host a `Shutdown` request and checks it exits
    /// cleanly.
    pub fn stop(&mut self, i: usize) {
        let (addr, child) = &mut self.0[i];
        let mut t = MuxPool::dial(addr.as_str(), None).unwrap().transport(0);
        t.call(&Request::Shutdown).unwrap();
        assert!(child.wait().unwrap().success());
    }
}

impl Drop for Hosts {
    fn drop(&mut self) {
        for (_, child) in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
