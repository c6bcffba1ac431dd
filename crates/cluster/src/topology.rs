//! Topology discovery: where a cluster front learns its shape.
//!
//! A deployment answers the same questions everywhere — which
//! backends, which listen address, how big an admission queue — but
//! the answers arrive from different places depending on who is
//! asking: a config file checked into the deployment repo, an
//! environment override injected by the process manager, a CLI flag
//! typed by an operator debugging at 3am. This module resolves the
//! four layers in fixed precedence:
//!
//! ```text
//!   built-in default  <  config file  <  environment  <  CLI flags
//! ```
//!
//! and — the part that matters at 3am — records **provenance**: every
//! resolved field remembers which layer set it, so
//! [`Topology::provenance_report`] can print "queue_capacity = 16
//! (env ECONCAST_CLUSTER_QUEUE_CAPACITY)" instead of leaving the
//! operator to diff four sources by hand.
//!
//! The config file is deliberately minimal (`key = value` lines, `#`
//! comments, commas in list values) — no document-format dependency,
//! no nesting, every key identical to its env/CLI spelling so there
//! is exactly one vocabulary to remember:
//!
//! ```text
//! # cluster.conf
//! backends = 10.0.0.1:4700, 10.0.0.2:4700
//! listen = 0.0.0.0:4699
//! queue_capacity = 64
//! max_queue_delay_ms = 50
//! ```
//!
//! Environment keys are the same names upper-cased under the
//! `ECONCAST_CLUSTER_` prefix; CLI flags are the same names
//! kebab-cased (`--backends`, `--queue-capacity`, …).

use crate::front::FrontConfig;
use crate::SlotSpec;
use std::fmt;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

/// Which layer decided a field's final value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// Nothing overrode the built-in default.
    Default,
    /// Set by the config file at this path.
    File(String),
    /// Set by this environment variable.
    Env(String),
    /// Set by this CLI flag.
    Cli(String),
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Source::Default => write!(f, "default"),
            Source::File(path) => write!(f, "file {path}"),
            Source::Env(var) => write!(f, "env {var}"),
            Source::Cli(flag) => write!(f, "cli {flag}"),
        }
    }
}

/// A resolved configuration field together with the layer that set it.
#[derive(Debug, Clone, PartialEq)]
pub struct Resolved<T> {
    /// The winning value.
    pub value: T,
    /// The layer it came from.
    pub source: Source,
}

impl<T> Resolved<T> {
    fn new(value: T) -> Self {
        Resolved {
            value,
            source: Source::Default,
        }
    }

    fn set(&mut self, value: T, source: Source) {
        self.value = value;
        self.source = source;
    }
}

/// A topology-discovery failure: which layer, which key, what was
/// wrong with it. Discovery is all-or-nothing — a half-understood
/// topology must not bind anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyError {
    /// The offending layer.
    pub source: Source,
    /// The offending key or flag.
    pub key: String,
    /// Why it was rejected.
    pub reason: String,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} `{}`: {}", self.source, self.key, self.reason)
    }
}

impl std::error::Error for TopologyError {}

/// The discovered cluster topology, every field with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Backend addresses, in ring-slot order. Empty means "no remote
    /// backends" — a front over only its local fallback, which is a
    /// legal (degenerate) deployment during bootstrap.
    pub backends: Resolved<Vec<String>>,
    /// The front's listen address.
    pub listen: Resolved<String>,
    /// Admission-queue bound ([`FrontConfig::queue_capacity`]).
    pub queue_capacity: Resolved<usize>,
    /// Queueing-delay bound, milliseconds
    /// ([`FrontConfig::max_queue_delay`]).
    pub max_queue_delay_ms: Resolved<u64>,
    /// Connection cap ([`FrontConfig::max_connections`]).
    pub max_connections: Resolved<usize>,
    /// Batch cap ([`FrontConfig::max_batch`]).
    pub max_batch: Resolved<usize>,
}

impl Default for Topology {
    fn default() -> Self {
        let front = FrontConfig::default();
        Topology {
            backends: Resolved::new(Vec::new()),
            listen: Resolved::new("127.0.0.1:0".to_string()),
            queue_capacity: Resolved::new(front.queue_capacity),
            max_queue_delay_ms: Resolved::new(front.max_queue_delay.as_millis() as u64),
            max_connections: Resolved::new(front.max_connections),
            max_batch: Resolved::new(front.max_batch),
        }
    }
}

/// The one vocabulary all three override layers share.
const KEYS: [&str; 6] = [
    "backends",
    "listen",
    "queue_capacity",
    "max_queue_delay_ms",
    "max_connections",
    "max_batch",
];

impl Topology {
    /// Resolves the full layer stack. `file` is the raw config-file
    /// text (the caller reads it, so discovery itself does no IO and
    /// tests need no tempfiles) with `file_name` used only for
    /// provenance; `env` is a lookup into the environment
    /// (`std::env::var(k).ok()` in production); `cli` is the raw
    /// argument list, `--key value` pairs.
    pub fn discover(
        file: Option<(&str, &str)>,
        env: impl Fn(&str) -> Option<String>,
        cli: &[String],
    ) -> Result<Topology, TopologyError> {
        let mut topo = Topology::default();
        if let Some((name, text)) = file {
            topo.apply_file(name, text)?;
        }
        topo.apply_env(env)?;
        topo.apply_cli(cli)?;
        Ok(topo)
    }

    fn apply_file(&mut self, name: &str, text: &str) -> Result<(), TopologyError> {
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let src = Source::File(format!("{name}:{}", lineno + 1));
            let Some((key, value)) = line.split_once('=') else {
                return Err(TopologyError {
                    source: src,
                    key: line.to_string(),
                    reason: "expected `key = value`".to_string(),
                });
            };
            self.apply(key.trim(), value.trim(), src)?;
        }
        Ok(())
    }

    fn apply_env(&mut self, env: impl Fn(&str) -> Option<String>) -> Result<(), TopologyError> {
        for key in KEYS {
            let var = format!("ECONCAST_CLUSTER_{}", key.to_uppercase());
            if let Some(value) = env(&var) {
                self.apply(key, value.trim(), Source::Env(var))?;
            }
        }
        Ok(())
    }

    fn apply_cli(&mut self, cli: &[String]) -> Result<(), TopologyError> {
        let mut args = cli.iter();
        while let Some(flag) = args.next() {
            let Some(kebab) = flag.strip_prefix("--") else {
                return Err(TopologyError {
                    source: Source::Cli(flag.clone()),
                    key: flag.clone(),
                    reason: "expected a `--key` flag".to_string(),
                });
            };
            let key = kebab.replace('-', "_");
            if !KEYS.contains(&key.as_str()) {
                return Err(TopologyError {
                    source: Source::Cli(flag.clone()),
                    key: flag.clone(),
                    reason: format!("unknown flag (known: {})", KEYS.join(", ")),
                });
            }
            let Some(value) = args.next() else {
                return Err(TopologyError {
                    source: Source::Cli(flag.clone()),
                    key: flag.clone(),
                    reason: "flag needs a value".to_string(),
                });
            };
            self.apply(&key, value, Source::Cli(flag.clone()))?;
        }
        Ok(())
    }

    /// Applies one `key = value` from any layer.
    fn apply(&mut self, key: &str, value: &str, source: Source) -> Result<(), TopologyError> {
        let err = |reason: String| TopologyError {
            source: source.clone(),
            key: key.to_string(),
            reason,
        };
        let positive = |value: &str| -> Result<usize, TopologyError> {
            match value.parse::<usize>() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(err(format!("`{value}` is not a positive integer"))),
            }
        };
        match key {
            "backends" => {
                let list: Vec<String> = value
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                for addr in &list {
                    // Validate shape early — `host:port` with a numeric
                    // port — without resolving: discovery must work on a
                    // machine that can't yet reach the backends.
                    let port_ok = addr.rsplit_once(':').is_some_and(|(host, port)| {
                        !host.is_empty() && port.parse::<u16>().is_ok()
                    });
                    if !port_ok {
                        return Err(err(format!("backend `{addr}` is not host:port")));
                    }
                }
                self.backends.set(list, source);
            }
            "listen" => {
                if value
                    .rsplit_once(':')
                    .is_none_or(|(h, p)| h.is_empty() || p.parse::<u16>().is_err())
                {
                    return Err(err(format!("`{value}` is not host:port")));
                }
                self.listen.set(value.to_string(), source);
            }
            "queue_capacity" => {
                let n = positive(value)?;
                self.queue_capacity.set(n, source);
            }
            "max_queue_delay_ms" => {
                let ms = value
                    .parse::<u64>()
                    .map_err(|_| err(format!("`{value}` is not an integer")))?;
                self.max_queue_delay_ms.set(ms, source);
            }
            "max_connections" => {
                let n = positive(value)?;
                self.max_connections.set(n, source);
            }
            "max_batch" => {
                let n = positive(value)?;
                self.max_batch.set(n, source);
            }
            other => {
                return Err(err(format!(
                    "unknown key `{other}` (known: {})",
                    KEYS.join(", ")
                )));
            }
        }
        Ok(())
    }

    /// The [`FrontConfig`] this topology resolved to.
    pub fn front_config(&self) -> FrontConfig {
        FrontConfig {
            max_connections: self.max_connections.value,
            max_batch: self.max_batch.value,
            queue_capacity: self.queue_capacity.value,
            max_queue_delay: Duration::from_millis(self.max_queue_delay_ms.value),
        }
    }

    /// Resolves the backend list into ring slots, one `Remote` slot
    /// per backend in list order. DNS/interface resolution happens
    /// here (bind time), not at discovery time. An empty backend list
    /// resolves to a single `Local` slot — the bootstrap deployment: a
    /// front serving entirely on its in-process fallback solver until
    /// backends are added.
    pub fn slot_specs(&self) -> std::io::Result<Vec<SlotSpec>> {
        if self.backends.value.is_empty() {
            return Ok(vec![SlotSpec::Local]);
        }
        self.backends
            .value
            .iter()
            .map(|addr| {
                let resolved: SocketAddr = addr.to_socket_addrs()?.next().ok_or_else(|| {
                    std::io::Error::other(format!("`{addr}` resolved to nothing"))
                })?;
                Ok(SlotSpec::Remote(resolved))
            })
            .collect()
    }

    /// The operator-facing provenance table: one line per field, final
    /// value plus the layer that decided it.
    pub fn provenance_report(&self) -> String {
        let mut out = String::new();
        let mut line = |key: &str, value: String, source: &Source| {
            out.push_str(&format!("{key:<20} = {value:<40} ({source})\n"));
        };
        line(
            "backends",
            if self.backends.value.is_empty() {
                "(none: local fallback only)".to_string()
            } else {
                self.backends.value.join(",")
            },
            &self.backends.source,
        );
        line("listen", self.listen.value.clone(), &self.listen.source);
        line(
            "queue_capacity",
            self.queue_capacity.value.to_string(),
            &self.queue_capacity.source,
        );
        line(
            "max_queue_delay_ms",
            self.max_queue_delay_ms.value.to_string(),
            &self.max_queue_delay_ms.source,
        );
        line(
            "max_connections",
            self.max_connections.value.to_string(),
            &self.max_connections.source,
        );
        line(
            "max_batch",
            self.max_batch.value.to_string(),
            &self.max_batch.source,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_env(_: &str) -> Option<String> {
        None
    }

    #[test]
    fn defaults_match_front_config_defaults() {
        let topo = Topology::discover(None, no_env, &[]).expect("discover");
        let front = FrontConfig::default();
        assert_eq!(topo.front_config().queue_capacity, front.queue_capacity);
        assert_eq!(topo.front_config().max_queue_delay, front.max_queue_delay);
        assert_eq!(topo.front_config().max_connections, front.max_connections);
        assert_eq!(topo.front_config().max_batch, front.max_batch);
        assert_eq!(topo.backends.source, Source::Default);
        // No backends → the bootstrap topology: one local slot.
        assert_eq!(topo.slot_specs().expect("resolve"), vec![SlotSpec::Local]);
    }

    #[test]
    fn layers_stack_in_precedence_order_with_provenance() {
        let file = "\
# deployment defaults
backends = 127.0.0.1:4701, 127.0.0.1:4702
queue_capacity = 64
max_queue_delay_ms = 25
";
        let env = |var: &str| match var {
            "ECONCAST_CLUSTER_QUEUE_CAPACITY" => Some("128".to_string()),
            "ECONCAST_CLUSTER_LISTEN" => Some("0.0.0.0:4699".to_string()),
            _ => None,
        };
        let cli = vec!["--queue-capacity".to_string(), "16".to_string()];
        let topo = Topology::discover(Some(("cluster.conf", file)), env, &cli).expect("discover");

        // File set what nothing overrode.
        assert_eq!(
            topo.backends.value,
            vec!["127.0.0.1:4701".to_string(), "127.0.0.1:4702".to_string()]
        );
        assert_eq!(topo.backends.source, Source::File("cluster.conf:2".into()));
        assert_eq!(topo.max_queue_delay_ms.value, 25);
        // Env beat the file's queue_capacity — then CLI beat env.
        assert_eq!(topo.queue_capacity.value, 16);
        assert_eq!(
            topo.queue_capacity.source,
            Source::Cli("--queue-capacity".into())
        );
        // Env set the listen address unopposed.
        assert_eq!(topo.listen.value, "0.0.0.0:4699");
        assert_eq!(
            topo.listen.source,
            Source::Env("ECONCAST_CLUSTER_LISTEN".into())
        );
        // Untouched fields stay at (and say) default.
        assert_eq!(topo.max_batch.source, Source::Default);

        let report = topo.provenance_report();
        assert!(report.contains("cli --queue-capacity"), "{report}");
        assert!(report.contains("env ECONCAST_CLUSTER_LISTEN"), "{report}");
        assert!(report.contains("file cluster.conf:2"), "{report}");
        assert!(report.contains("(default)"), "{report}");
    }

    #[test]
    fn bad_values_fail_discovery_with_the_offending_layer() {
        let e = Topology::discover(Some(("c.conf", "queue_capacity = zero")), no_env, &[])
            .expect_err("bad int");
        assert_eq!(e.source, Source::File("c.conf:1".into()));
        assert!(e.reason.contains("positive integer"), "{e}");

        let e = Topology::discover(Some(("c.conf", "no_such_key = 1")), no_env, &[])
            .expect_err("unknown key");
        assert!(e.reason.contains("unknown key"), "{e}");

        let e = Topology::discover(Some(("c.conf", "backends = not-an-addr")), no_env, &[])
            .expect_err("bad backend");
        assert!(e.reason.contains("host:port"), "{e}");

        let env = |var: &str| (var == "ECONCAST_CLUSTER_MAX_BATCH").then(|| "-3".to_string());
        let e = Topology::discover(None, env, &[]).expect_err("bad env");
        assert_eq!(e.source, Source::Env("ECONCAST_CLUSTER_MAX_BATCH".into()));

        let cli = vec!["--listen".to_string()];
        let e = Topology::discover(None, no_env, &cli).expect_err("missing value");
        assert!(e.reason.contains("needs a value"), "{e}");

        let cli = vec!["--frobnicate".to_string(), "1".to_string()];
        let e = Topology::discover(None, no_env, &cli).expect_err("unknown flag");
        assert!(e.reason.contains("unknown flag"), "{e}");
    }

    #[test]
    fn comments_blanks_and_spacing_are_tolerated() {
        let file =
            "\n#  full-line comment\n  backends =   127.0.0.1:4701  # trailing comment\nmax_batch=512\n";
        let topo = Topology::discover(Some(("c.conf", file)), no_env, &[]).expect("discover");
        assert_eq!(topo.backends.value, vec!["127.0.0.1:4701".to_string()]);
        assert_eq!(topo.max_batch.value, 512);
        assert_eq!(topo.max_batch.source, Source::File("c.conf:4".into()));
    }

    #[test]
    fn slot_specs_resolve_in_list_order() {
        let cli = vec![
            "--backends".to_string(),
            "127.0.0.1:4701,127.0.0.1:4702".to_string(),
        ];
        let topo = Topology::discover(None, no_env, &cli).expect("discover");
        let slots = topo.slot_specs().expect("resolve loopback");
        assert_eq!(slots.len(), 2);
        match (&slots[0], &slots[1]) {
            (SlotSpec::Remote(a), SlotSpec::Remote(b)) => {
                assert_eq!(a.port(), 4701);
                assert_eq!(b.port(), 4702);
            }
            other => panic!("expected two remote slots, got {other:?}"),
        }
    }
}
