//! Fixture: the same fan-out loop, bounded — every round polls the
//! request budget, or crosses a failpoint seam, before paying for
//! another network fetch.

use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};

pub struct Budget {
    left: AtomicU64,
}

impl Budget {
    pub fn check(&self) -> Result<(), String> {
        if self.left.fetch_sub(1, Ordering::Relaxed) == 0 {
            Err("budget exhausted".to_owned())
        } else {
            Ok(())
        }
    }
}

pub fn handle_count(budget: &Budget, addrs: &[String]) -> std::io::Result<u64> {
    let mut total = 0u64;
    for a in addrs {
        if budget.check().is_err() {
            break;
        }
        total = total.wrapping_add(fetch_count(a)?);
    }
    Ok(total)
}

pub fn handle_count_seamed(addrs: &[String]) -> std::io::Result<u64> {
    let mut total = 0u64;
    for a in addrs {
        if fail::inject(Seam::ClusterFetch).is_err() {
            break;
        }
        total = total.wrapping_add(fetch_count(a)?);
    }
    Ok(total)
}

pub enum Seam {
    ClusterFetch,
}

mod fail {
    pub fn inject(_seam: super::Seam) -> Result<(), String> {
        Ok(())
    }
}

fn fetch_count(addr: &str) -> std::io::Result<u64> {
    let mut s = TcpStream::connect(addr)?;
    let mut buf = [0u8; 8];
    s.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}
