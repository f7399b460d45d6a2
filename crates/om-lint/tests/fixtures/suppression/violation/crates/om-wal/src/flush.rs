//! Fixture: suppression hygiene — reason-less and unknown-check allows.
//! The reason-less allow still suppresses a real lock-across-io finding,
//! so only the hygiene pass fires (no stale-suppression stray).

use std::io::Write;
use std::net::TcpStream;
use std::sync::Mutex;

pub struct Replayer {
    queue: Mutex<Vec<Vec<u8>>>,
}

impl Replayer {
    pub fn flush(&self, addr: &str) -> std::io::Result<()> {
        // om-lint: allow(lock-across-io)
        let mut q = self.queue.lock().unwrap();
        while let Some(row) = q.pop() {
            send_row(addr, &row)?;
        }
        Ok(())
    }

    pub fn pending(&self) -> usize {
        // om-lint: allow(made-up-check) — the check name does not exist
        self.queue.lock().map_or(0, |q| q.len())
    }
}

fn send_row(addr: &str, row: &[u8]) -> std::io::Result<()> {
    let mut s = TcpStream::connect(addr)?;
    s.write_all(row)
}
