//! Fixture: a suppression that outlived its finding — the guard it
//! excused now drops before the sends, but the allow stayed behind.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Mutex;

pub struct Replayer {
    queue: Mutex<Vec<Vec<u8>>>,
}

impl Replayer {
    pub fn flush(&self, addr: &str) -> std::io::Result<()> {
        let rows: Vec<Vec<u8>> = {
            // om-lint: allow(lock-across-io) — one replica, written at shutdown only
            let mut q = self.queue.lock().unwrap();
            q.drain(..).collect()
        };
        for row in &rows {
            send_row(addr, row)?;
        }
        Ok(())
    }
}

fn send_row(addr: &str, row: &[u8]) -> std::io::Result<()> {
    let mut s = TcpStream::connect(addr)?;
    s.write_all(row)
}
