//! Named failpoints for deterministic chaos testing.
//!
//! Library code marks its failure seams with `fail::inject(Seam::…)?`.
//! Every build carries the seams; an unarmed one costs one relaxed
//! atomic load and a branch. Tests arm actions per seam:
//!
//! ```
//! use om_fault::fail::{self, Action, Seam};
//!
//! fail::configure(Seam::CubeDecode, Action::Error("disk bit rot".into()));
//! assert!(fail::inject(Seam::CubeDecode).is_err());
//! fail::reset();
//! assert!(fail::inject(Seam::CubeDecode).is_ok());
//! ```
//!
//! The registry is process-global, so a test binary that arms a seam
//! serializes all of its tests. [`init_from_env`] arms seams by
//! [`Seam::name`] for whole-process chaos runs:
//! `OM_FAILPOINTS="cube.decode=error:rot;engine.compare=delay:50"`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use crate::FaultError;

macro_rules! seams {
    ($($variant:ident => $name:literal,)*) => {
        /// One failure seam. Each sits at attribute, level, request or
        /// frame grain, never inside a per-row loop.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Seam {
            $($variant,)*
        }

        impl Seam {
            /// Every seam, in declaration order.
            pub const ALL: &'static [Seam] = &[$(Seam::$variant,)*];

            /// The dotted name `OM_FAILPOINTS` entries use.
            #[must_use]
            pub const fn name(self) -> &'static str {
                match self {
                    $(Seam::$variant => $name,)*
                }
            }

            const fn bit(self) -> u64 {
                1 << self as u32
            }
        }
    };
}

seams! {
    CompareAttr => "compare.attr", // per-attribute comparison work item
    CompareDrillLevel => "compare.drill-level", // one drill-down level expansion
    CubeDecode => "cube.decode", // cube snapshot frame decode
    StoreDecode => "store.decode", // store manifest decode
    IngestAppend => "ingest.append", // WAL append fsync boundary
    IngestMerge => "ingest.merge", // delta-cube merge into the live cube
    IngestSeal => "ingest.seal", // segment seal + snapshot swap
    EngineCompare => "engine.compare", // compare entry point
    EngineDrill => "engine.drill", // drill-down entry point
    EngineBatch => "engine.batch", // batch plan execution
    EngineGi => "engine.gi", // general-impressions scan
    ServerRespond => "server.respond", // response serialization boundary
    ExecRank => "exec.rank", // sharded rank worker body
    ExecBatchGroup => "exec.batch-group", // batch group dispatch
    ClusterFetch => "cluster.fetch", // per-replica pinned store fetch
    ClusterReplicaRetry => "cluster.replica-retry", // one replica attempt in the retry ladder
    ClusterIngestReplica => "cluster.ingest-replica", // per-replica ingest write fan-out
    ClusterValidatePrefix => "cluster.validate-prefix", // per-condition count on descent
    ServerInternalStore => "server.internal-store", // shard-side /internal/store handler
    ExploreScan => "explore.scan", // per-attribute candidate pool scan
    ExploreStep => "explore.step", // end of one greedy selection step
    EngineExplore => "engine.explore", // explore entry point
}

const _: () = assert!(Seam::ALL.len() <= 64, "one ARMED bit per seam");

/// What an armed failpoint does when its seam is crossed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Sleep this long, then continue normally.
    Delay(Duration),
    /// Return [`FaultError::Injected`] with this message.
    Error(String),
    /// Panic with this message (exercises panic isolation).
    Panic(String),
}

/// Parse one `OM_FAILPOINTS` entry: `name=delay:<ms>`, `name=error:<msg>`
/// or `name=panic:<msg>`, where `name` is a [`Seam::name`].
///
/// # Errors
/// Returns a description of the offending entry.
pub fn parse_entry(entry: &str) -> Result<(Seam, Action), String> {
    let bad = |why: &str| format!("failpoint entry {entry:?} {why}");
    let (name, spec) = entry.split_once('=').ok_or_else(|| bad("has no '='"))?;
    let &seam = Seam::ALL
        .iter()
        .find(|s| s.name() == name)
        .ok_or_else(|| bad("names an unknown seam"))?;
    let (kind, arg) = spec.split_once(':').unwrap_or((spec, ""));
    let message = match arg {
        "" => format!("failpoint {name}"),
        arg => arg.to_owned(),
    };
    let action = match kind {
        "delay" => Action::Delay(Duration::from_millis(
            arg.parse().map_err(|_| bad("has a bad delay"))?,
        )),
        "error" => Action::Error(message),
        "panic" => Action::Panic(message),
        _ => return Err(bad("names an unknown action")),
    };
    Ok((seam, action))
}

/// One bit per seam with an action in [`ACTIONS`]. Relaxed is enough:
/// the action itself is read under the lock, so the bit publishes no data.
static ARMED: AtomicU64 = AtomicU64::new(0);
static ACTIONS: Mutex<BTreeMap<Seam, Action>> = Mutex::new(BTreeMap::new());

fn actions() -> MutexGuard<'static, BTreeMap<Seam, Action>> {
    // A panic injected *by* a failpoint can poison the lock; the map
    // itself is never left mid-mutation, so recover the guard.
    ACTIONS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Change the armed actions, then recompute [`ARMED`] under the same
/// lock so the mask never disagrees with the map.
fn edit(change: impl FnOnce(&mut BTreeMap<Seam, Action>)) {
    let mut actions = actions();
    change(&mut actions);
    let mask = actions.keys().fold(0, |mask, seam| mask | seam.bit());
    ARMED.store(mask, Ordering::Relaxed);
}

/// Arm `action` at `seam`, replacing any action already there.
pub fn configure(seam: Seam, action: Action) {
    edit(|actions| drop(actions.insert(seam, action)));
}

/// Disarm `seam`.
pub fn remove(seam: Seam) {
    edit(|actions| drop(actions.remove(&seam)));
}

/// Disarm every seam.
pub fn reset() {
    edit(BTreeMap::clear);
}

/// Arm seams from the `OM_FAILPOINTS` environment variable
/// (`name=action;name=action` entries). Nothing is armed unless every
/// entry parses.
///
/// # Errors
/// The first malformed entry, as [`parse_entry`] describes it.
pub fn init_from_env() -> Result<(), String> {
    let raw = std::env::var("OM_FAILPOINTS").unwrap_or_default();
    let entries = raw
        .split(';')
        .map(str::trim)
        .filter(|e| !e.is_empty())
        .map(parse_entry)
        .collect::<Result<Vec<_>, _>>()?;
    edit(|actions| actions.extend(entries));
    Ok(())
}

/// Cross a failure seam: the armed [`Action`], if any, fires. An
/// unarmed seam is one relaxed load and a branch — no lock, no
/// allocation.
///
/// # Errors
/// [`FaultError::Injected`] when an `Error` action is armed at `seam`.
#[inline]
pub fn inject(seam: Seam) -> Result<(), FaultError> {
    if ARMED.load(Ordering::Relaxed) & seam.bit() == 0 {
        return Ok(());
    }
    fire(seam)
}

#[cold]
#[inline(never)]
fn fire(seam: Seam) -> Result<(), FaultError> {
    // Clone out so the delay/panic happens outside the lock.
    let action = actions().get(&seam).cloned();
    match action {
        None => Ok(()),
        Some(Action::Delay(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
        Some(Action::Error(msg)) => Err(FaultError::Injected(msg)),
        Some(Action::Panic(msg)) => panic!("failpoint {}: {msg}", seam.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every test that arms the process-global registry holds this lock.
    fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parse_entries() {
        let ms = Duration::from_millis;
        for (entry, action) in [
            ("cube.decode=delay:50", Action::Delay(ms(50))),
            ("cube.decode=error:boom", Action::Error("boom".into())),
            ("cube.decode=panic:boom", Action::Panic("boom".into())),
        ] {
            assert_eq!(parse_entry(entry), Ok((Seam::CubeDecode, action)));
        }
        assert!(parse_entry("no-equals").is_err());
    }

    #[test]
    fn malformed_entries_are_errors() {
        let unknown = parse_entry("engine.comapre=delay:5").unwrap_err();
        assert!(unknown.contains("engine.comapre=delay:5"), "{unknown}");
        for entry in ["engine.compare=delay:abc", "engine.compare=explode"] {
            assert!(parse_entry(entry).unwrap_err().contains(entry));
        }
    }

    #[test]
    fn every_seam_name_round_trips() {
        for &seam in Seam::ALL {
            let entry = format!("{}=panic", seam.name());
            let default = Action::Panic(format!("failpoint {}", seam.name()));
            assert_eq!(parse_entry(&entry), Ok((seam, default)));
        }
    }

    #[test]
    fn unarmed_inject_is_ok() {
        let _serial = serial();
        reset();
        for &seam in Seam::ALL {
            assert!(inject(seam).is_ok());
        }
    }

    #[test]
    fn armed_error_fires_and_reset_disarms() {
        let _serial = serial();
        configure(Seam::EngineCompare, Action::Error("kaboom".into()));
        assert!(inject(Seam::EngineGi).is_ok());
        let injected = Err(FaultError::Injected("kaboom".into()));
        assert_eq!(inject(Seam::EngineCompare), injected);
        remove(Seam::EngineCompare);
        assert!(inject(Seam::EngineCompare).is_ok());
    }

    #[test]
    fn armed_delay_sleeps() {
        let _serial = serial();
        configure(Seam::CubeDecode, Action::Delay(Duration::from_millis(30)));
        let t = std::time::Instant::now();
        inject(Seam::CubeDecode).unwrap();
        assert!(t.elapsed() >= Duration::from_millis(30));
        remove(Seam::CubeDecode);
    }

    #[test]
    fn armed_panic_panics() {
        let _serial = serial();
        configure(Seam::ServerRespond, Action::Panic("isolated".into()));
        let caught = std::panic::catch_unwind(|| inject(Seam::ServerRespond));
        assert!(caught.is_err());
        remove(Seam::ServerRespond);
    }
}
