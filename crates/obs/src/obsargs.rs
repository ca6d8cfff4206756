//! The shared observability flags: one parser for all workspace bins.
//!
//! `iotax-gen`, `iotax-analyze`, and `iotax-audit` all accept
//! `--ledger DIR` (write a self-contained run directory, see
//! [`Ledger`](crate::Ledger); a reused directory loses the earlier run's
//! `run.json`, heartbeat stream and black box) and `--store DIR` (append
//! the finished run to the durable CRC-checked segment-log store, see
//! [`store`](crate::store)). Each binary folds [`ObsArgs::accept`] into its
//! flag loop instead of keeping its own copy of the parsing, then
//! [`ObsArgs::install`]s the ledger once and [`ObsSession::finish`]es on
//! every exit path so `run.json` carries the real exit status.

use crate::recorder::{flush_blackbox, start_heartbeat, Heartbeat};
use crate::{Ledger, Result, BLACKBOX_DIR, HEARTBEAT_FILE};
use std::path::PathBuf;

/// Usage-string fragment for the shared flags.
pub const OBS_USAGE: &str = "[--ledger DIR] [--store DIR]";

/// Heartbeat period for `--ledger` runs; coarse liveness, not profiling,
/// so one line a second is plenty for `iotax-report watch`.
const HEARTBEAT_PERIOD_MS: u64 = 1000;

/// The iotax workspace crates linked into every binary; recorded in run
/// manifests. All workspace crates share one version.
const WORKSPACE_CRATES: &[&str] = &[
    "iotax-obs",
    "iotax-stats",
    "iotax-darshan",
    "iotax-sched",
    "iotax-lmt",
    "iotax-sim",
    "iotax-ml",
    "iotax-uq",
    "iotax-core",
    "iotax-cli",
];

/// Parsed values of the shared observability flags.
#[derive(Debug, Default)]
pub struct ObsArgs {
    /// `--ledger DIR`: run-ledger directory.
    pub ledger: Option<PathBuf>,
    /// `--store DIR`: durable segment-log store to append the run to.
    pub store: Option<PathBuf>,
}

impl ObsArgs {
    /// Tries to consume `flag`; `value` pulls the flag's argument from
    /// the iterator the caller is already walking. Returns whether the
    /// flag was one of the shared observability flags.
    pub fn accept(
        &mut self,
        flag: &str,
        value: &mut dyn FnMut(&str) -> Result<String>,
    ) -> Result<bool> {
        match flag {
            "--ledger" => {
                self.ledger = Some(PathBuf::from(value("--ledger")?));
                Ok(true)
            }
            "--store" => {
                self.store = Some(PathBuf::from(value("--store")?));
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Opens the run ledger, if one was requested, and installs its sink
    /// globally.
    pub fn install(&self, tool: &str) -> Result<ObsSession> {
        let ledger = if self.ledger.is_some() || self.store.is_some() {
            let args: Vec<String> = std::env::args().skip(1).collect();
            let mut ledger = match &self.ledger {
                Some(dir) => Ledger::create(dir, tool, env!("CARGO_PKG_VERSION"), args)?,
                None => Ledger::create_detached(tool, env!("CARGO_PKG_VERSION"), args),
            };
            if let Some(store) = &self.store {
                ledger.set_store(store);
            }
            for name in WORKSPACE_CRATES {
                ledger.add_crate_version(name, env!("CARGO_PKG_VERSION"));
            }
            // audit:allow(swallowed-result) -- the displaced default NoopSink is dropped by design
            let _ = crate::set_sink(ledger.sink());
            Some(ledger)
        } else {
            None
        };
        // Ledger-directory runs are the long ones worth a black box:
        // arm the flight recorder (flushed into `<ledger>/blackbox/` on
        // panic or fatal exit), the heartbeat stream `iotax-report watch`
        // tails, and heap accounting so per-stage peak-heap gauges land
        // in the run ledger.
        let heartbeat = match (&self.ledger, &ledger) {
            (Some(dir), Some(ledger)) => {
                crate::install_heap_accounting();
                crate::install_recorder(dir.join(BLACKBOX_DIR), ledger.run_id(), None);
                Some(start_heartbeat(dir.join(HEARTBEAT_FILE), HEARTBEAT_PERIOD_MS))
            }
            _ => None,
        };
        Ok(ObsSession { ledger, heartbeat })
    }
}

/// The installed observability state of one invocation. Obtain with
/// [`ObsArgs::install`]; call [`finish`](ObsSession::finish) on every
/// exit path and exit with the code it hands back.
pub struct ObsSession {
    ledger: Option<Ledger>,
    heartbeat: Option<Heartbeat>,
}

impl ObsSession {
    /// The run id, when a ledger is being written.
    pub fn run_id(&self) -> Option<String> {
        self.ledger.as_ref().map(|l| l.run_id().to_owned())
    }

    /// The in-progress ledger, for recording seeds, inputs, config
    /// digests, and tool-specific sections.
    pub fn ledger_mut(&mut self) -> Option<&mut Ledger> {
        self.ledger.as_mut()
    }

    /// Tears down the session: stops the heartbeat and, when a ledger is
    /// active, stamps `exit_status` and writes `run.json`. On a fatal exit
    /// the flight recorder's ring is then flushed as a black box. It comes
    /// after `run.json`, so a black box with no `run.json` beside it means
    /// a run that died unfinished and nothing else (see
    /// [`run_crashed`](crate::run_crashed)).
    ///
    /// Returns `exit_status` unchanged — observability teardown failures
    /// are reported to stderr but can never mask the run's own outcome,
    /// and the type signature makes the non-masking contract structural:
    /// callers exit with whatever comes back.
    #[must_use = "exit with the returned status so teardown can never mask the run's outcome"]
    pub fn finish(self, exit_status: i32) -> i32 {
        if let Some(heartbeat) = self.heartbeat {
            heartbeat.stop();
        }
        if let Some(ledger) = self.ledger {
            match ledger.finish(exit_status) {
                Ok(path) => eprintln!("run ledger written to {}", path.display()),
                Err(e) => eprintln!("run ledger write failed: {e}"),
            }
        }
        if exit_status != 0 {
            if let Some(path) = flush_blackbox(&format!("fatal exit {exit_status}")) {
                eprintln!("flight recorder: black box written to {}", path.display());
            }
        }
        exit_status
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Error;

    #[test]
    fn accept_consumes_only_shared_flags() {
        let mut obs = ObsArgs::default();
        let mut pulls = vec!["ledger-dir".to_owned(), "store-dir".to_owned()];
        let mut value = move |_name: &str| Ok(pulls.remove(0));
        assert!(obs.accept("--ledger", &mut value).expect("ledger"));
        assert!(obs.accept("--store", &mut value).expect("store"));
        assert!(!obs.accept("--jobs", &mut value).expect("other flag untouched"));
        assert_eq!(obs.ledger.as_deref(), Some(std::path::Path::new("ledger-dir")));
        assert_eq!(obs.store.as_deref(), Some(std::path::Path::new("store-dir")));
    }

    #[test]
    fn accept_requires_a_value() {
        let mut obs = ObsArgs::default();
        let mut value =
            |name: &str| Err(Error::usage(format!("{name} needs a value"))) as Result<String>;
        assert!(obs.accept("--ledger", &mut value).is_err());
    }
}
