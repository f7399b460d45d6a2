//! Named failpoints for deterministic chaos testing.
//!
//! Library code marks its failure seams with `fail::inject("name")?`.
//! Without the `failpoints` cargo feature the call is an inlined
//! `Ok(())` — nothing to configure, nothing to pay. With the feature on
//! (chaos test builds), tests arm actions by name:
//!
//! ```
//! use om_fault::fail::{self, Action};
//! use std::time::Duration;
//!
//! fail::configure("cube.decode", Action::Error("disk bit rot".into()));
//! # #[cfg(feature = "failpoints")]
//! # assert!(fail::inject("cube.decode").is_err());
//! fail::reset();
//! assert!(fail::inject("cube.decode").is_ok());
//! ```
//!
//! The registry is process-global (it must be visible across crate
//! boundaries), so chaos tests that arm overlapping names serialize
//! themselves. [`init_from_env`] arms failpoints from `OM_FAILPOINTS`
//! for whole-process chaos runs:
//! `OM_FAILPOINTS="cube.decode=error:rot;engine.compare=delay:50"`.

use std::time::Duration;

use crate::FaultError;

/// Every failpoint name the workspace declares, one per seam.
///
/// This is the contract between library code and the chaos suites:
/// `fail::inject` sites must use a name listed here, and tests may only
/// arm listed names (plus test-local `tests.*` names). `om-lint`'s
/// `failpoint-names` check enforces both directions, so a typo'd name
/// cannot silently arm nothing.
pub const SEAMS: &[&str] = &[
    "compare.attr",        // om-compare: per-attribute comparison work item
    "compare.drill-level", // om-compare: one drill-down level expansion
    "cube.decode",         // om-cube: cube snapshot frame decode
    "store.decode",        // om-cube: store manifest decode
    "ingest.append",       // om-ingest: WAL append fsync boundary
    "ingest.merge",        // om-ingest: delta-cube merge into the live cube
    "ingest.seal",         // om-ingest: segment seal + snapshot swap
    "engine.compare",      // om-engine: compare entry point
    "engine.drill",        // om-engine: drill-down entry point
    "engine.batch",        // om-engine: batch plan execution
    "engine.gi",           // om-engine: general-impressions scan
    "server.respond",      // om-server: response serialization boundary
    "exec.rank",           // om-exec: sharded rank worker body
    "exec.batch-group",    // om-exec: batch group dispatch
    "cluster.fetch",       // om-cluster: per-replica pinned store fetch
    "cluster.replica-retry", // om-cluster: per-attempt replica call in the retry ladder
    "cluster.ingest-replica", // om-cluster: per-replica ingest write fan-out
    "cluster.validate-prefix", // om-cluster: per-condition cluster count when a drill descends
    "server.internal-store", // om-server: shard-side /internal/store handler
    "explore.scan",        // om-explore: per-attribute candidate pool scan
    "explore.step",        // om-explore: end of one greedy selection step
    "engine.explore",      // om-engine: explore entry point
];

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
/// or `name=panic:<msg>`.
///
/// # Errors
/// Returns a description of the offending entry.
pub fn parse_entry(entry: &str) -> Result<(String, Action), String> {
    let (name, spec) = entry
        .split_once('=')
        .ok_or_else(|| format!("failpoint entry {entry:?} has no '='"))?;
    let (kind, arg) = spec.split_once(':').unwrap_or((spec, ""));
    let action = match kind {
        "delay" => Action::Delay(Duration::from_millis(
            arg.parse::<u64>()
                .map_err(|_| format!("failpoint {name:?}: bad delay {arg:?}"))?,
        )),
        "error" => Action::Error(if arg.is_empty() {
            format!("failpoint {name}")
        } else {
            arg.to_owned()
        }),
        "panic" => Action::Panic(if arg.is_empty() {
            format!("failpoint {name}")
        } else {
            arg.to_owned()
        }),
        other => return Err(format!("failpoint {name:?}: unknown action {other:?}")),
    };
    Ok((name.to_owned(), action))
}

#[cfg(feature = "failpoints")]
mod registry {
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    use super::Action;
    use crate::FaultError;

    static REGISTRY: Mutex<BTreeMap<String, Action>> = Mutex::new(BTreeMap::new());

    fn lock() -> std::sync::MutexGuard<'static, BTreeMap<String, Action>> {
        // A panic injected *by* a failpoint can poison the lock; the map
        // itself is never left mid-mutation, so recover the guard.
        REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn configure(name: &str, action: Action) {
        lock().insert(name.to_owned(), action);
    }

    pub fn remove(name: &str) {
        lock().remove(name);
    }

    pub fn reset() {
        lock().clear();
    }

    pub fn armed() -> Vec<String> {
        lock().keys().cloned().collect()
    }

    pub fn inject(name: &str) -> Result<(), FaultError> {
        // Clone out so the delay/panic happens outside the lock.
        let action = lock().get(name).cloned();
        match action {
            None => Ok(()),
            Some(Action::Delay(d)) => {
                std::thread::sleep(d);
                Ok(())
            }
            Some(Action::Error(msg)) => Err(FaultError::Injected(msg)),
            Some(Action::Panic(msg)) => panic!("failpoint {name}: {msg}"),
        }
    }
}

/// Arm an action for `name`. No-op without the `failpoints` feature.
pub fn configure(name: &str, action: Action) {
    #[cfg(feature = "failpoints")]
    registry::configure(name, action);
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = (name, action);
    }
}

/// Disarm `name`. No-op without the `failpoints` feature.
pub fn remove(name: &str) {
    #[cfg(feature = "failpoints")]
    registry::remove(name);
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = name;
    }
}

/// Disarm every failpoint. No-op without the `failpoints` feature.
pub fn reset() {
    #[cfg(feature = "failpoints")]
    registry::reset();
}

/// Names currently armed (always empty without the feature).
#[must_use]
pub fn armed() -> Vec<String> {
    #[cfg(feature = "failpoints")]
    {
        registry::armed()
    }
    #[cfg(not(feature = "failpoints"))]
    {
        Vec::new()
    }
}

/// Arm failpoints from the `OM_FAILPOINTS` environment variable
/// (`name=action;name=action` entries). Malformed entries are reported
/// on stderr and skipped; without the `failpoints` feature nothing
/// happens at all.
pub fn init_from_env() {
    #[cfg(feature = "failpoints")]
    if let Ok(raw) = std::env::var("OM_FAILPOINTS") {
        for entry in raw.split(';').filter(|e| !e.trim().is_empty()) {
            match parse_entry(entry.trim()) {
                Ok((name, action)) => configure(&name, action),
                Err(why) => eprintln!("om-fault: ignoring {why}"),
            }
        }
    }
}

/// Cross a failure seam. Without the `failpoints` feature this is an
/// inlined `Ok(())`; with it, the armed [`Action`] (if any) fires.
///
/// # Errors
/// [`FaultError::Injected`] when an `Error` action is armed for `name`.
#[inline]
pub fn inject(name: &str) -> Result<(), FaultError> {
    #[cfg(feature = "failpoints")]
    {
        registry::inject(name)
    }
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = name;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_entries() {
        assert_eq!(
            parse_entry("a.b=delay:50").unwrap(),
            ("a.b".into(), Action::Delay(Duration::from_millis(50)))
        );
        assert_eq!(
            parse_entry("x=error:boom").unwrap(),
            ("x".into(), Action::Error("boom".into()))
        );
        assert_eq!(
            parse_entry("x=panic").unwrap(),
            ("x".into(), Action::Panic("failpoint x".into()))
        );
        assert!(parse_entry("no-equals").is_err());
        assert!(parse_entry("x=delay:abc").is_err());
        assert!(parse_entry("x=explode").is_err());
    }

    #[test]
    fn unarmed_inject_is_ok() {
        assert!(inject("tests.nothing-armed-here").is_ok());
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn armed_error_fires_and_reset_disarms() {
        let name = "tests.fail-error";
        configure(name, Action::Error("kaboom".into()));
        assert!(armed().contains(&name.to_owned()));
        match inject(name) {
            Err(FaultError::Injected(msg)) => assert_eq!(msg, "kaboom"),
            other => panic!("expected injected error, got {other:?}"),
        }
        remove(name);
        assert!(inject(name).is_ok());
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn armed_delay_sleeps() {
        let name = "tests.fail-delay";
        configure(name, Action::Delay(Duration::from_millis(30)));
        let t = std::time::Instant::now();
        inject(name).unwrap();
        assert!(t.elapsed() >= Duration::from_millis(30));
        remove(name);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn armed_panic_panics() {
        let name = "tests.fail-panic";
        configure(name, Action::Panic("isolated".into()));
        let caught = std::panic::catch_unwind(|| inject(name));
        assert!(caught.is_err());
        remove(name);
    }
}
