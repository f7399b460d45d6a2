//! Fixture: a well-formed allow — known check, with a reason, and the
//! next line really does trigger the named check.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Mutex;

pub struct Replayer {
    queue: Mutex<Vec<Vec<u8>>>,
}

impl Replayer {
    pub fn flush(&self, addr: &str) -> std::io::Result<()> {
        // om-lint: allow(lock-across-io) — fixture demonstrates the happy path
        let mut q = self.queue.lock().unwrap();
        while let Some(row) = q.pop() {
            send_row(addr, &row)?;
        }
        Ok(())
    }
}

fn send_row(addr: &str, row: &[u8]) -> std::io::Result<()> {
    let mut s = TcpStream::connect(addr)?;
    s.write_all(row)
}
