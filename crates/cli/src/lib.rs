//! # vermem-cli
//!
//! Command-line front end for the `vermem` verifier suite. All command
//! logic lives here (returning the rendered output as a `String`) so it is
//! unit-testable; `main.rs` is a thin wrapper.
//!
//! ```text
//! vermem verify <trace> [--addr N] [--strategy auto|backtracking|sat] [--budget N] [--jobs N]
//!               [--tier closure,exact|exact] [--prune all|none]
//!               [--metrics[=json|text]] [--trace-out FILE]
//! vermem sc <trace> [--model sc|tso|pso|coherence|ra|arm-dob]
//!           [--engine compiled|sat] [--tier closure,exact|exact] [--budget N]
//!           [--metrics[=json|text]] [--trace-out FILE]
//! vermem classify <trace>
//! vermem explain <trace> [--addr N]
//! vermem gen --procs N --ops N [--addrs N] [--seed N] [--rmw PCT] [--reuse PCT]
//! vermem inject <trace> --kind corrupt-read|stale-read|lost-write|reorder [--seed N]
//! vermem reduce <dimacs> [--figure 4.1|5.1|5.2]
//! vermem sim --cpus N --instrs N [--addrs N] [--tso] [--seed N] [--verify] [--online] [--jobs N]
//!            [--tier SPEC] [--prune all|none] [--metrics[=json|text]] [--trace-out FILE]
//! vermem serve [<stream.bin>...] [--streams N] [--window W|unbounded] [--jobs N] [--chunk BYTES]
//!              [--cpus N] [--instrs N] [--addrs N] [--seed N] [--fault]
//!              [--obs-addr HOST:PORT] [--forensics DIR]
//!              [--metrics[=json|text]] [--trace-out FILE]
//! vermem sat <dimacs>
//! vermem litmus
//! ```
//!
//! Traces use the text format of [`vermem_trace::fmt`]; `-` reads stdin.
//!
//! ## Observability
//!
//! `--metrics` appends the unified [`RunReport`] (text by default,
//! `--metrics=json` for the schema-tagged JSON form) to the command
//! output; `--trace-out FILE` writes a Chrome trace-event file loadable
//! in `chrome://tracing` / Perfetto. `vermem serve` additionally takes
//! `--obs-addr HOST:PORT` (live `/metrics`, `/healthz` and
//! `/snapshot.json` endpoints on a built-in zero-dependency server) and
//! `--forensics DIR` (flight-recorder bundles as JSONL, one file per
//! stream with detections). None of these flags change verdicts or
//! `SearchStats` — observability is a write-only side channel.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod obs_server;

use std::fmt::Write as _;
use vermem_coherence::{SearchConfig, Strategy, TierConfig, Verdict, VmcVerifier};
use vermem_consistency::{verify_axiom, AxiomConfig, Engine, ModelId};
use vermem_trace::{Addr, AddrOps, Trace};
use vermem_util::obs;
use vermem_util::obs::report::{RunReport, RunReportSection};

/// A command failure rendered to the user.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Usage text.
pub const USAGE: &str = "\
vermem — verify memory coherence and consistency of execution traces

USAGE:
  vermem verify <trace> [--addr N] [--strategy auto|backtracking|sat] [--budget N]
                [--jobs N] [--tier SPEC] [--prune all|none]
                [--metrics[=json|text]] [--trace-out FILE]
  vermem sc <trace> [--model sc|tso|pso|coherence|ra|arm-dob]
            [--engine compiled|sat] [--tier closure,exact|exact]
            [--budget N] [--metrics[=json|text]] [--trace-out FILE]
  vermem classify <trace>
  vermem explain <trace> [--addr N]
  vermem gen --procs N --ops N [--addrs N] [--seed N] [--rmw PCT] [--reuse PCT]
  vermem inject <trace> --kind corrupt-read|stale-read|lost-write|reorder [--seed N]
  vermem reduce <dimacs> [--figure 4.1|5.1|5.2]
  vermem sim --cpus N --instrs N [--addrs N] [--tso] [--seed N] [--verify]
             [--online] [--jobs N] [--tier SPEC] [--prune all|none]
             [--metrics[=json|text]] [--trace-out FILE]
  vermem serve [<stream.bin>...] [--streams N] [--window W|unbounded] [--jobs N]
               [--chunk BYTES] [--cpus N] [--instrs N] [--addrs N] [--seed N]
               [--fault] [--obs-addr HOST:PORT] [--forensics DIR]
               [--metrics[=json|text]] [--trace-out FILE]
  vermem sat <dimacs>
  vermem litmus

Traces use the vermem text format; pass '-' to read stdin.
verify --addr N decides address N alone, so it prints that address's
verdict and no execution verdict.
--jobs N verifies addresses on N worker threads (0 or default: all cores);
the verdict is deterministic and identical at every thread count.
--tier SPEC selects the tier accounting: 'closure,exact' (default) credits
general instances the polynomial constraint-closure frontline decides to
the frontline and counts only the ambiguous rest as escalated to the exact
search; 'exact' only relabels, counting every general instance as
escalated. The closure runs under both (it is the exact search's own
precheck and window pre-pass), so verdicts and the '# search:' line are
bit-identical; under 'sc', 'exact' also skips RA's fast tier.
--prune switches the verdict-preserving search prunings (the window
pre-pass and symmetry breaking): 'all' (default) or 'none'.
sc decides consistency under a declared memory model, compiled from its
axioms: the serialization-based four plus 'ra' (Release–Acquire) and
'arm-dob' (ARM-like dependency ordering). --engine picks the decider —
compiled' (default) lowers the model onto the exact-search kernel,
'sat' runs the spec-to-CNF compiler. For models with a polynomial fast
tier (ra), --tier exact disables it; the default pipeline tries the
fast tier first and escalates only when it cannot decide.
--budget N caps the states of the exact search (0 or default: no cap);
under coherence it caps each address's search. Under tso, pso, ra and
arm-dob the exact tier first searches the SC sub-space and accepts a
certified SC witness; that SC stage spends from the same budget, and the
model's own machine gets the rest.
--metrics appends the unified run report (text, or JSON with
--metrics=json); --trace-out FILE writes a Chrome trace-event JSON file
loadable in chrome://tracing or https://ui.perfetto.dev.
serve runs the sharded bounded-memory streaming engine over binary trace
streams (v2 proc-major files or v3 temporal event logs), feeding each in
--chunk-byte slices; with no file arguments it synthesizes --streams
simulator event streams (--fault injects a protocol fault into each).
--window W bounds retained state per address (ops/slots); 'unbounded' or
0 disables retirement. Streaming verdicts are bit-identical to batch
verification.
--obs-addr HOST:PORT starts a built-in introspection server for the run:
GET /metrics (Prometheus text), /healthz (per-stream liveness JSON) and
/snapshot.json (the unified run report). Use port 0 for an ephemeral
port (printed on a '# obs:' line).
--forensics DIR enables the per-shard flight recorder: every online
detection emits a forensic bundle (retained window ops, minimal
incoherent core, issue/detect timestamps, tier provenance) written as
JSONL, one file per stream with detections. Neither flag changes
verdicts, stats or tier accounting.
";

/// Minimal flag parser: positional arguments plus `--flag [value]` pairs
/// (also `--flag=value`).
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

/// Flags that take no value. `metrics` is special: bare `--metrics`
/// means text, `--metrics=json` selects the JSON rendering.
const BOOL_FLAGS: &[&str] = &["tso", "verify", "online", "fault", "help", "metrics"];

impl Args {
    fn parse(args: &[String]) -> Result<Args, CliError> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if let Some((n, v)) = name.split_once('=') {
                    flags.push((n.to_string(), Some(v.to_string())));
                } else if BOOL_FLAGS.contains(&name) {
                    flags.push((name.to_string(), None));
                } else {
                    // A missing value is reported by `expect_flags`, after
                    // an unknown name.
                    flags.push((name.to_string(), it.next().cloned()));
                }
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { positional, flags })
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("invalid --{name} value '{v}'"))),
        }
    }

    /// Reject flags this command does not understand (`--help` is always
    /// allowed). Every command calls this so a typo like `--sed 7` is an
    /// error instead of a silently ignored no-op.
    fn expect_flags(&self, allowed: &[&str]) -> Result<(), CliError> {
        for (name, value) in &self.flags {
            if name == "help" {
                continue;
            }
            if !allowed.contains(&name.as_str()) {
                return Err(err(format!(
                    "unknown flag --{name} for this command (try --help)"
                )));
            }
            if value.is_none() && !BOOL_FLAGS.contains(&name.as_str()) {
                return Err(err(format!("--{name} requires a value")));
            }
        }
        Ok(())
    }
}

/// The `--metrics` / `--trace-out` observability surface of a command.
///
/// The obs state is process-global, so concurrent sessions would bleed
/// into each other; a process-wide mutex serializes them. Dropping the
/// session always disables recording, even on the error path.
struct ObsSession {
    json: bool,
    emit_metrics: bool,
    trace_out: Option<String>,
    _guard: std::sync::MutexGuard<'static, ()>,
}

static OBS_SESSION_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

impl ObsSession {
    /// Parse the obs flags; `Ok(None)` when neither is present (and
    /// recording stays off — a no-flags run emits nothing).
    fn start(args: &Args) -> Result<Option<ObsSession>, CliError> {
        let emit_metrics = args.has("metrics");
        let json = match args.flag("metrics") {
            None | Some("text") => false,
            Some("json") => true,
            Some(other) => {
                return Err(err(format!(
                    "invalid --metrics value '{other}' (expected json or text)"
                )))
            }
        };
        let trace_out = args.flag("trace-out").map(str::to_string);
        if !emit_metrics && trace_out.is_none() {
            return Ok(None);
        }
        let guard = match OBS_SESSION_LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        obs::reset();
        obs::set_enabled(true);
        Ok(Some(ObsSession {
            json,
            emit_metrics,
            trace_out,
            _guard: guard,
        }))
    }

    /// Stop recording, fold the registry and the top-5 slowest addresses
    /// into `report`, append the requested rendering to `out`, and write
    /// the Chrome trace file if requested.
    fn finish(self, out: &mut String, mut report: RunReport) -> Result<(), CliError> {
        obs::set_enabled(false);
        let events = obs::take_events();
        let snap = obs::snapshot();
        let top = vermem_util::obs::report::top_k_slowest(&events, "verify.addr", 5);
        if !top.is_empty() {
            let mut s = RunReportSection::new("slowest_addrs");
            for e in &top {
                let addr = e
                    .args
                    .iter()
                    .find(|(k, _)| k == "addr")
                    .map_or(0, |(_, v)| *v);
                s.field(&format!("addr_{addr}_us"), e.dur_us);
            }
            report.push_section(s);
        }
        report.extend_from_metrics(&snap);
        if self.emit_metrics {
            if self.json {
                out.push_str(&report.to_json());
                out.push('\n');
            } else {
                for line in report.to_text().lines() {
                    let _ = writeln!(out, "# {line}");
                }
            }
        }
        if let Some(path) = &self.trace_out {
            let doc = vermem_util::obs::chrome::render_chrome_trace(&events);
            std::fs::write(path, doc).map_err(|e| err(format!("cannot write {path}: {e}")))?;
        }
        Ok(())
    }
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        // Error paths must not leave global recording on.
        obs::set_enabled(false);
    }
}

/// Run a command line (without the program name); returns rendered output.
pub fn run(args: &[String], stdin: &str) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Err(err(USAGE));
    };
    let rest = Args::parse(&args[1..])?;
    if rest.has("help") {
        return Ok(USAGE.to_string());
    }
    match command.as_str() {
        "verify" => cmd_verify(&rest, stdin),
        "sc" => cmd_sc(&rest, stdin),
        "classify" => cmd_classify(&rest, stdin),
        "explain" => cmd_explain(&rest, stdin),
        "gen" => cmd_gen(&rest),
        "inject" => cmd_inject(&rest, stdin),
        "reduce" => cmd_reduce(&rest, stdin),
        "sim" => cmd_sim(&rest),
        "serve" => cmd_serve(&rest),
        "sat" => cmd_sat(&rest, stdin),
        "litmus" => {
            rest.expect_flags(&[])?;
            cmd_litmus()
        }
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(err(format!("unknown command '{other}'\n\n{USAGE}"))),
    }
}

/// Load the trace argument through one decode path: stdin (`-`) is
/// always text, files are sniffed with [`vermem_trace::binary::looks_binary`]
/// — the binary decoder itself accepts both the v2 batch and v3 temporal
/// event-stream framings, so `verify`/`explain`/`classify` all take the
/// same files `serve` does.
fn load_trace(args: &Args, stdin: &str) -> Result<Trace, CliError> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| err("expected a trace file argument (or '-')"))?;
    if path == "-" {
        return vermem_trace::fmt::parse_trace(stdin).map_err(|e| err(format!("parse error: {e}")));
    }
    let bytes = std::fs::read(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    if vermem_trace::binary::looks_binary(&bytes) {
        return vermem_trace::binary::decode_trace(&bytes)
            .map_err(|e| err(format!("{path}: binary decode error: {e}")));
    }
    let text = String::from_utf8(bytes).map_err(|e| err(format!("{path}: not UTF-8: {e}")))?;
    vermem_trace::fmt::parse_trace(&text).map_err(|e| err(format!("parse error: {e}")))
}

fn parse_strategy(args: &Args) -> Result<Strategy, CliError> {
    Ok(match args.flag("strategy").unwrap_or("auto") {
        "auto" => Strategy::Auto,
        "backtracking" => Strategy::Backtracking,
        "sat" => Strategy::Sat,
        other => return Err(err(format!("unknown strategy '{other}'"))),
    })
}

/// Parse `--prune` into [`SearchConfig::prune`] (default `all`: on).
fn parse_prune(args: &Args) -> Result<bool, CliError> {
    match args.flag("prune").unwrap_or("all") {
        "all" => Ok(true),
        "none" => Ok(false),
        other => Err(err(format!(
            "unknown --prune value '{other}' (expected all or none)"
        ))),
    }
}

/// Parse `--tier` into a [`TierConfig`] (default: closure frontline +
/// exact escalation).
fn parse_tier(args: &Args) -> Result<TierConfig, CliError> {
    TierConfig::parse(args.flag("tier").unwrap_or("closure,exact")).map_err(err)
}

fn cmd_verify(args: &Args, stdin: &str) -> Result<String, CliError> {
    args.expect_flags(&[
        "addr",
        "strategy",
        "budget",
        "jobs",
        "tier",
        "prune",
        "metrics",
        "trace-out",
    ])?;
    let session = ObsSession::start(args)?;
    let trace = load_trace(args, stdin)?;
    let budget = args.num::<u64>("budget", 0)?;
    let jobs = args.num::<usize>("jobs", 0)?; // 0 = available_parallelism
    let verifier = VmcVerifier {
        strategy: parse_strategy(args)?,
        search: SearchConfig {
            max_states: (budget > 0).then_some(budget),
            prune: parse_prune(args)?,
        },
        tier: parse_tier(args)?,
    };
    let mut out = String::new();

    // Single-address mode: it decides one address, so it prints that
    // address's verdict and no execution verdict.
    if let Some(a) = args.flag("addr") {
        let addr = Addr(a.parse().map_err(|_| err("invalid --addr"))?);
        let (verdict, stats, _) = verifier.verify_ops(&AddrOps::of(&trace, addr));
        let coherent = match verdict {
            Verdict::Coherent(s) => {
                let _ = writeln!(out, "address {}: coherent ({} ops)", addr.0, s.len());
                true
            }
            Verdict::Incoherent(v) => {
                let _ = writeln!(out, "address {}: VIOLATION — {v}", addr.0);
                false
            }
            Verdict::Unknown => {
                let _ = writeln!(out, "address {}: unknown (budget exhausted)", addr.0);
                false
            }
        };
        let _ = writeln!(out, "# {}", stats.to_report().to_inline());
        if let Some(session) = session {
            let mut run = RunReport::new();
            run.push_section(
                RunReportSection::new("verify")
                    .with("mode", "single-address")
                    .with("addr", u64::from(addr.0))
                    .with("coherent", u64::from(coherent)),
            );
            run.push_section(stats.to_report());
            session.finish(&mut out, run)?;
        }
        return Ok(out);
    }

    // Whole-execution mode: the parallel per-address engine (deterministic
    // at every thread count; jobs == 1 runs inline with no threads).
    let report = vermem_coherence::verify_execution_par(&trace, &verifier, jobs);
    let all_ok = match &report.verdict {
        vermem_coherence::ExecutionVerdict::Coherent(witnesses) => {
            for (addr, s) in witnesses {
                let _ = writeln!(out, "address {}: coherent ({} ops)", addr.0, s.len());
            }
            true
        }
        vermem_coherence::ExecutionVerdict::Incoherent(v) => {
            let _ = writeln!(out, "address {}: VIOLATION — {v}", v.addr.0);
            false
        }
        vermem_coherence::ExecutionVerdict::Unknown { addr } => {
            let _ = writeln!(out, "address {}: unknown (budget exhausted)", addr.0);
            false
        }
    };
    let _ = writeln!(
        out,
        "{}",
        if all_ok {
            "execution: coherent"
        } else {
            "execution: NOT coherent"
        }
    );
    let verify_section = RunReportSection::new("verify")
        .with("addresses", report.addresses)
        .with("jobs", report.jobs)
        .with("coherent", u64::from(all_ok));
    let tier_section = RunReportSection::new("tier")
        .with("pipeline", verifier.tier.spec())
        .with("frontline_decided", report.tiers.frontline_decided)
        .with("escalated", report.tiers.escalated);
    let _ = writeln!(out, "# {}", verify_section.to_inline());
    let _ = writeln!(out, "# {}", tier_section.to_inline());
    let _ = writeln!(out, "# {}", report.stats.to_report().to_inline());
    if let Some(session) = session {
        let mut run = RunReport::new();
        run.push_section(verify_section);
        run.push_section(tier_section);
        run.push_section(report.stats.to_report());
        session.finish(&mut out, run)?;
    }
    Ok(out)
}

fn cmd_sc(args: &Args, stdin: &str) -> Result<String, CliError> {
    args.expect_flags(&["model", "engine", "tier", "budget", "metrics", "trace-out"])?;
    let session = ObsSession::start(args)?;
    let trace = load_trace(args, stdin)?;
    let model = ModelId::parse(args.flag("model").unwrap_or("sc")).ok_or_else(|| {
        err(format!(
            "unknown model '{}' (expected sc|tso|pso|coherence|ra|arm-dob)",
            args.flag("model").unwrap_or_default()
        ))
    })?;
    let engine = Engine::parse(args.flag("engine").unwrap_or("compiled")).ok_or_else(|| {
        err(format!(
            "unknown engine '{}' (expected compiled|sat)",
            args.flag("engine").unwrap_or_default()
        ))
    })?;
    let budget = args.num::<u64>("budget", 0)?;
    let cfg = AxiomConfig {
        engine,
        kernel: vermem_consistency::KernelConfig {
            max_states: (budget > 0).then_some(budget),
        },
        tier: parse_tier(args)?,
    };
    let report = verify_axiom(&trace, model, &cfg);
    let stats = report.stats;
    let mut out = String::new();
    let model_name = model.name();
    let consistent = match &report.verdict {
        vermem_consistency::ConsistencyVerdict::Consistent(s) => {
            let _ = writeln!(out, "{model_name}: consistent ({} ops serialized)", s.len());
            true
        }
        vermem_consistency::ConsistencyVerdict::Violating(v) => {
            let _ = writeln!(out, "{model_name}: VIOLATION — {v}");
            false
        }
        vermem_consistency::ConsistencyVerdict::Unknown { stats } => {
            // The budget bounds each search (each address's, for a model
            // decided address by address; the SC stage and the model's
            // own machine share one); the count sums every search.
            let _ = writeln!(
                out,
                "{model_name}: unknown (budget exhausted: a search passed its \
                 {budget}-state limit; {} states visited in all)",
                stats.states
            );
            false
        }
    };
    let tier_name = match report.tier {
        vermem_coherence::closure::Tier::Frontline => "frontline",
        vermem_coherence::closure::Tier::Exact => "exact",
    };
    let _ = writeln!(out, "# engine={} tier={tier_name}", engine.name());
    // Same pretty-printer path as `verify`: the kernel's SearchStats
    // rendered through the unified run-report section.
    let _ = writeln!(out, "# {}", stats.to_report().to_inline());
    if let Some(session) = session {
        let mut run = RunReport::new();
        run.push_section(
            RunReportSection::new("sc")
                .with("model", model_name)
                .with("engine", engine.name())
                .with("tier", tier_name)
                .with("consistent", u64::from(consistent))
                .with("budget", budget),
        );
        run.push_section(stats.to_report());
        session.finish(&mut out, run)?;
    }
    Ok(out)
}

fn cmd_classify(args: &Args, stdin: &str) -> Result<String, CliError> {
    args.expect_flags(&[])?;
    let trace = load_trace(args, stdin)?;
    let mut out = String::new();
    let stats = vermem_trace::stats::TraceStats::of(&trace);
    let _ = writeln!(out, "{}", stats.to_report().to_inline());
    let verifier = VmcVerifier::new();
    for ops in vermem_trace::AddrIndex::build(&trace).iter() {
        let addr = ops.addr();
        let profile = vermem_trace::classify::InstanceProfile::of_ops(ops);
        let _ = writeln!(
            out,
            "address {}: {} ops, ≤{} ops/proc, ≤{} writes/value, mix {:?} → {} ({:?})",
            addr.0,
            profile.num_ops,
            profile.max_ops_per_proc,
            profile.max_writes_per_value,
            profile.mix,
            profile.known_complexity(),
            verifier.select_ops(ops),
        );
    }
    Ok(out)
}

fn cmd_explain(args: &Args, stdin: &str) -> Result<String, CliError> {
    args.expect_flags(&["addr"])?;
    let trace = load_trace(args, stdin)?;
    let addrs: Vec<Addr> = match args.flag("addr") {
        Some(a) => vec![Addr(a.parse().map_err(|_| err("invalid --addr"))?)],
        None => trace.addresses(),
    };
    let mut out = String::new();
    for addr in addrs {
        let instance = AddrOps::of(&trace, addr);
        match vermem_coherence::minimize_incoherent_core(
            &instance,
            &vermem_coherence::ExplainConfig::default(),
        ) {
            None => {
                let _ = writeln!(out, "address {}: coherent (nothing to explain)", addr.0);
            }
            Some(core) => {
                let _ = writeln!(
                    out,
                    "address {}: minimal incoherent core ({} of {} ops):",
                    addr.0,
                    core.len(),
                    instance.num_ops()
                );
                for (r, op) in core.ops.iter() {
                    let _ = writeln!(out, "  {r:?} {op}");
                }
                let _ = writeln!(out, "  cause: {}", core.violation);
            }
        }
    }
    Ok(out)
}

fn cmd_gen(args: &Args) -> Result<String, CliError> {
    args.expect_flags(&["procs", "ops", "addrs", "seed", "rmw", "reuse"])?;
    let cfg = vermem_trace::gen::GenConfig {
        procs: args.num("procs", 4usize)?,
        total_ops: args.num("ops", 64usize)?,
        addrs: args.num("addrs", 1usize)?,
        write_fraction: 0.5,
        rmw_fraction: args.num("rmw", 0u32)? as f64 / 100.0,
        value_reuse: args.num("reuse", 30u32)? as f64 / 100.0,
        seed: args.num("seed", 0xC0FFEEu64)?,
    };
    let (trace, _) = vermem_trace::gen::gen_sc_trace(&cfg);
    Ok(vermem_trace::fmt::format_trace(&trace))
}

fn cmd_inject(args: &Args, stdin: &str) -> Result<String, CliError> {
    args.expect_flags(&["kind", "seed"])?;
    let trace = load_trace(args, stdin)?;
    let kind = match args.flag("kind").ok_or_else(|| err("--kind required"))? {
        "corrupt-read" => vermem_trace::gen::ViolationKind::CorruptReadValue,
        "stale-read" => vermem_trace::gen::ViolationKind::StaleRead,
        "lost-write" => vermem_trace::gen::ViolationKind::LostWrite,
        "reorder" => vermem_trace::gen::ViolationKind::ReorderAdjacent,
        other => return Err(err(format!("unknown violation kind '{other}'"))),
    };
    let seed = args.num("seed", 1u64)?;
    match vermem_trace::gen::inject_violation(&trace, kind, seed) {
        None => Err(err("no eligible injection site in this trace")),
        Some((mutated, inj)) => {
            let mut out = String::new();
            let _ = writeln!(
                out,
                "# injected {:?} at {:?} (guaranteed violation: {})",
                inj.kind, inj.site, inj.guaranteed
            );
            out.push_str(&vermem_trace::fmt::format_trace(&mutated));
            Ok(out)
        }
    }
}

fn cmd_reduce(args: &Args, stdin: &str) -> Result<String, CliError> {
    args.expect_flags(&["figure"])?;
    let path = args
        .positional
        .first()
        .ok_or_else(|| err("expected a DIMACS file argument (or '-')"))?;
    let text = if path == "-" {
        stdin.to_string()
    } else {
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?
    };
    let cnf = vermem_sat::dimacs::parse_dimacs(&text)
        .map_err(|e| err(format!("DIMACS parse error: {e}")))?;
    let trace = match args.flag("figure").unwrap_or("4.1") {
        "4.1" => vermem_reductions::reduce_sat_to_vmc(&cnf).trace,
        "5.1" => vermem_reductions::reduce_3sat_restricted(&cnf).trace,
        "5.2" => vermem_reductions::reduce_3sat_rmw(&cnf).trace,
        other => return Err(err(format!("unknown figure '{other}' (4.1, 5.1 or 5.2)"))),
    };
    Ok(vermem_trace::fmt::format_trace(&trace))
}

fn cmd_sim(args: &Args) -> Result<String, CliError> {
    args.expect_flags(&[
        "cpus",
        "instrs",
        "addrs",
        "tso",
        "seed",
        "verify",
        "online",
        "jobs",
        "tier",
        "prune",
        "metrics",
        "trace-out",
    ])?;
    let session = ObsSession::start(args)?;
    let cpus = args.num("cpus", 4usize)?;
    let instrs = args.num("instrs", 64usize)?;
    let program = vermem_sim::random_program(&vermem_sim::WorkloadConfig {
        cpus,
        instrs_per_cpu: instrs.div_ceil(cpus.max(1)),
        addrs: args.num("addrs", 3usize)?,
        write_fraction: 0.45,
        rmw_fraction: 0.1,
        seed: args.num("seed", 1u64)?,
    });
    let cap = vermem_sim::Machine::run(
        &program,
        vermem_sim::MachineConfig {
            store_buffers: args.has("tso"),
            seed: args.num("seed", 1u64)?,
            ..Default::default()
        },
    );
    let mut out = String::new();
    let mut run = RunReport::new();
    let _ = writeln!(
        out,
        "# {} ops, {}",
        cap.trace.num_ops(),
        cap.stats.to_report().to_inline()
    );
    run.push_section(cap.stats.to_report());
    if args.has("verify") {
        let jobs = args.num::<usize>("jobs", 0)?; // 0 = available_parallelism
        let verifier = VmcVerifier {
            search: SearchConfig {
                prune: parse_prune(args)?,
                ..Default::default()
            },
            tier: parse_tier(args)?,
            ..VmcVerifier::new()
        };
        let report = vermem_coherence::verify_execution_par(&cap.trace, &verifier, jobs);
        let _ = writeln!(
            out,
            "# verification: {} ({} addresses, {} jobs)",
            if report.is_coherent() {
                "coherent"
            } else {
                "VIOLATION"
            },
            report.addresses,
            report.jobs
        );
        let tier_section = RunReportSection::new("tier")
            .with("pipeline", verifier.tier.spec())
            .with("frontline_decided", report.tiers.frontline_decided)
            .with("escalated", report.tiers.escalated);
        let _ = writeln!(out, "# {}", tier_section.to_inline());
        let _ = writeln!(out, "# {}", report.stats.to_report().to_inline());
        run.push_section(
            RunReportSection::new("verify")
                .with("addresses", report.addresses)
                .with("jobs", report.jobs)
                .with("coherent", u64::from(report.is_coherent())),
        );
        run.push_section(tier_section);
        run.push_section(report.stats.to_report());
    }
    if args.has("online") {
        let mut v = vermem_coherence::OnlineVerifier::new();
        for &(proc, op) in &cap.event_log {
            v.observe(proc, op);
        }
        let violations = v.finish();
        let _ = writeln!(
            out,
            "# online check: {}",
            if violations.is_empty() {
                "clean".to_string()
            } else {
                format!(
                    "{} violation(s), first at event {}",
                    violations.len(),
                    violations[0].detected_at
                )
            }
        );
    }
    out.push_str(&vermem_trace::fmt::format_trace(&cap.trace));
    if let Some(session) = session {
        session.finish(&mut out, run)?;
    }
    Ok(out)
}

/// Parse `--window` for `serve`: a positive op/slot budget per address,
/// or `unbounded` / `0` to disable retirement.
fn parse_window(args: &Args) -> Result<Option<usize>, CliError> {
    match args.flag("window") {
        None => Ok(Some(4096)),
        Some("unbounded") => Ok(None),
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| err(format!("invalid --window value '{v}'")))?;
            Ok(if n == 0 { None } else { Some(n) })
        }
    }
}

fn cmd_serve(args: &Args) -> Result<String, CliError> {
    args.expect_flags(&[
        "streams",
        "window",
        "jobs",
        "chunk",
        "cpus",
        "instrs",
        "addrs",
        "seed",
        "fault",
        "obs-addr",
        "forensics",
        "metrics",
        "trace-out",
    ])?;
    let session = ObsSession::start(args)?;
    let window = parse_window(args)?;
    let jobs = args.num::<usize>("jobs", 0)?; // 0 = available_parallelism
    let chunk = args.num("chunk", 64 * 1024usize)?.max(1);
    let obs_addr = args.flag("obs-addr").map(str::to_string);
    let forensics_dir = args.flag("forensics").map(std::path::PathBuf::from);
    // The flight recorder rides with --forensics; --obs-addr alone keeps
    // the engine untouched (the server only reads shared state).
    let recorder = forensics_dir
        .as_ref()
        .map(|_| vermem_coherence::RecorderConfig::default());
    if let Some(dir) = &forensics_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| err(format!("cannot create {}: {e}", dir.display())))?;
    }

    // Gather the input streams: binary files if given, otherwise
    // synthesized simulator event logs (one SC machine run per stream).
    let mut inputs: Vec<(String, Vec<u8>)> = Vec::new();
    if args.positional.is_empty() {
        let streams = args.num("streams", 4usize)?.max(1);
        let cpus = args.num("cpus", 4usize)?;
        let instrs = args.num("instrs", 256usize)?;
        let seed = args.num("seed", 1u64)?;
        for i in 0..streams {
            let s = seed.wrapping_add(i as u64);
            let program = vermem_sim::random_program(&vermem_sim::WorkloadConfig {
                cpus,
                instrs_per_cpu: instrs.div_ceil(cpus.max(1)),
                addrs: args.num("addrs", 4usize)?,
                write_fraction: 0.45,
                rmw_fraction: 0.0,
                seed: s,
            });
            let faults = if args.has("fault") {
                vec![vermem_sim::FaultPlan {
                    kind: vermem_sim::FaultKind::CorruptFill {
                        cpu: 1,
                        xor: 0xDEAD_0000,
                    },
                    at_step: 6,
                }]
            } else {
                Vec::new()
            };
            let cap = vermem_sim::Machine::run(
                &program,
                vermem_sim::MachineConfig {
                    seed: s,
                    faults,
                    ..Default::default()
                },
            );
            let bytes = vermem_sim::event_stream_bytes(&cap)
                .map_err(|e| err(format!("stream {i}: {e}")))?;
            inputs.push((format!("sim:{s}"), bytes));
        }
    } else {
        for path in &args.positional {
            let bytes = std::fs::read(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
            inputs.push((path.clone(), bytes));
        }
    }

    let mut out = String::new();
    let mut run = RunReport::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut total_events = 0u64;
    let mut total_us = 0u64;
    let mut incoherent = 0usize;
    let mut peak_windows = 0u64;
    let mut total_bundles = 0usize;

    // Live introspection: shared state always exists (it is cheap); the
    // server and the per-chunk clock reads only run with --obs-addr.
    let names: Vec<String> = inputs.iter().map(|(n, _)| n.clone()).collect();
    let state = obs_server::ServeState::new(&names, obs::now_us());
    let server = match &obs_addr {
        Some(addr) => {
            let s = obs_server::ObsServer::start(addr, std::sync::Arc::clone(&state))
                .map_err(|e| err(format!("cannot bind obs server on {addr}: {e}")))?;
            let _ = writeln!(out, "# obs: serving on {}", s.local_addr());
            Some(s)
        }
        None => None,
    };
    let live = server.is_some();

    for (i, (name, bytes)) in inputs.iter().enumerate() {
        // The v3 framing carries a temporal event log with meaningful
        // detection latencies; v2 proc-major files do not.
        let temporal = bytes.len() >= 6 && u16::from_le_bytes([bytes[4], bytes[5]]) == 3;
        let t0 = obs::now_us();
        let mut engine = vermem_coherence::StreamVerifier::new(vermem_coherence::StreamConfig {
            window,
            jobs,
            temporal,
            verifier: VmcVerifier::new(),
            recorder,
            ..Default::default()
        });
        for piece in bytes.chunks(chunk) {
            let c0 = if live { obs::now_us() } else { 0 };
            engine
                .ingest(piece)
                .map_err(|e| err(format!("{name}: {e}")))?;
            if live {
                state.series.record(obs::now_us().saturating_sub(c0));
            }
        }
        engine
            .end_input()
            .map_err(|e| err(format!("{name}: {e}")))?;
        if engine.needs_replay() {
            for piece in bytes.chunks(chunk) {
                engine
                    .ingest_replay(piece)
                    .map_err(|e| err(format!("{name}: {e}")))?;
            }
        }
        let report = engine.finish();
        let elapsed = obs::now_us().saturating_sub(t0).max(1);
        let ops_per_sec = report.events.saturating_mul(1_000_000) / elapsed;
        total_events += report.events;
        total_us += elapsed;
        peak_windows = peak_windows.max(report.metrics.peak_retained_windows);
        if !report.is_coherent() {
            incoherent += 1;
        }
        latencies.extend_from_slice(&report.detect_latencies_us);
        let verdict = match &report.verdict {
            vermem_coherence::StreamVerdict::Coherent => "coherent".to_string(),
            vermem_coherence::StreamVerdict::Incoherent(v) => {
                format!("VIOLATION at address {}", v.addr.0)
            }
            vermem_coherence::StreamVerdict::Unknown { addr } => {
                format!("unknown at address {}", addr.0)
            }
        };
        if live {
            state.series.rotate(obs::now_us());
        }
        state.complete_stream(
            i,
            report.events,
            report.detections.len() as u64,
            &verdict,
            report.is_coherent(),
        );
        if let Some(dir) = &forensics_dir {
            total_bundles += report.forensics.len();
            if !report.forensics.is_empty() {
                let path = dir.join(format!("stream-{i}.forensics.jsonl"));
                let mut doc = String::new();
                for bundle in &report.forensics {
                    doc.push_str(&bundle.to_json());
                    doc.push('\n');
                }
                std::fs::write(&path, doc)
                    .map_err(|e| err(format!("cannot write {}: {e}", path.display())))?;
                let _ = writeln!(
                    out,
                    "# forensics: stream {i} — {} bundle(s) → {}",
                    report.forensics.len(),
                    path.display()
                );
            }
        }
        let _ = writeln!(
            out,
            "# stream {i} ({name}): {verdict} — {} events, {} addrs, {} ops/s, \
             peak {} windows, {} detections",
            report.events,
            report.addresses,
            ops_per_sec,
            report.metrics.peak_retained_windows,
            report.detections.len()
        );
        run.push_section(
            RunReportSection::new(&format!("stream{i}"))
                .with("events", report.events)
                .with("coherent", u64::from(report.is_coherent()))
                .with("sustained_ops_per_sec", ops_per_sec)
                .with(
                    "peak_retained_windows",
                    report.metrics.peak_retained_windows,
                )
                .with("retired_ops", report.metrics.retired_ops)
                .with("retired_bytes", report.metrics.retired_bytes)
                .with("sealed_addresses", report.metrics.sealed_addresses)
                .with("exact_addresses", report.metrics.exact_addresses)
                .with("replayed_addresses", report.metrics.replayed_addresses)
                .with("detections", report.detections.len()),
        );
        if live {
            state.set_snapshot(run.to_json());
        }
    }
    let aggregate_ops = total_events.saturating_mul(1_000_000) / total_us.max(1);
    let p99 = vermem_coherence::stream::percentile(&latencies, 99);
    let _ = writeln!(
        out,
        "# serve: {} stream(s), {} incoherent, {} events, {} ops/s sustained, \
         p99 detect latency {}, peak {} windows (window {})",
        inputs.len(),
        incoherent,
        total_events,
        aggregate_ops,
        p99.map_or_else(|| "-".to_string(), |v| format!("{v} us")),
        peak_windows,
        window.map_or_else(|| "unbounded".to_string(), |w| w.to_string()),
    );
    let mut serve_section = RunReportSection::new("serve")
        .with("streams", inputs.len())
        .with("incoherent", incoherent)
        .with("events", total_events)
        .with("sustained_ops_per_sec", aggregate_ops)
        .with("peak_retained_windows", peak_windows)
        .with("jobs", jobs)
        .with("window", window.unwrap_or(0));
    if let Some(p99) = p99 {
        serve_section = serve_section.with("p99_detect_latency_us", p99);
    }
    if forensics_dir.is_some() {
        serve_section = serve_section.with("forensic_bundles", total_bundles);
    }
    run.push_section(serve_section);
    if live {
        state.set_snapshot(run.to_json());
    }
    if let Some(server) = server {
        server.shutdown();
    }
    if let Some(session) = session {
        session.finish(&mut out, run)?;
    }
    Ok(out)
}

fn cmd_sat(args: &Args, stdin: &str) -> Result<String, CliError> {
    args.expect_flags(&[])?;
    let path = args
        .positional
        .first()
        .ok_or_else(|| err("expected a DIMACS file argument (or '-')"))?;
    let text = if path == "-" {
        stdin.to_string()
    } else {
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?
    };
    let cnf = vermem_sat::dimacs::parse_dimacs(&text)
        .map_err(|e| err(format!("DIMACS parse error: {e}")))?;
    // An UNSATISFIABLE answer is printed only after its refutation proof
    // passed the RUP checker.
    let (result, stats) = vermem_sat::solve_certified(&cnf);
    let mut out = String::new();
    match result {
        vermem_sat::SatResult::Sat(model) => {
            let _ = write!(out, "s SATISFIABLE\nv");
            for i in 0..cnf.num_vars() {
                let v = vermem_sat::Var(i);
                let lit = v.lit(model.value(v).unwrap_or(false));
                let _ = write!(out, " {}", lit.to_dimacs());
            }
            let _ = writeln!(out, " 0");
        }
        vermem_sat::SatResult::Unsat => {
            let _ = writeln!(out, "s UNSATISFIABLE");
        }
    }
    let _ = writeln!(out, "c {}", stats.to_report().to_inline());
    Ok(out)
}

fn cmd_litmus() -> Result<String, CliError> {
    // All six declared models, decided by the spec-generic SAT compiler
    // (the axiomatic ground truth every other engine answers to).
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<15} {:>4} {:>4} {:>4} {:>10} {:>4} {:>8}",
        "test", "SC", "TSO", "PSO", "Coherence", "RA", "ARM-dob"
    );
    for test in vermem_consistency::litmus::all_litmus_tests() {
        let mut cells = Vec::new();
        for id in ModelId::ALL {
            let got = vermem_consistency::solve_spec_sat(&test.trace, vermem_consistency::spec(id))
                .is_consistent();
            cells.push(if got { "yes" } else { "no" });
        }
        let _ = writeln!(
            out,
            "{:<15} {:>4} {:>4} {:>4} {:>10} {:>4} {:>8}",
            test.name, cells[0], cells[1], cells[2], cells[3], cells[4], cells[5]
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ok(args: &[&str], stdin: &str) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&args, stdin).expect("command should succeed")
    }

    const COHERENT: &str = "P0: W(0,1) R(0,2)\nP1: W(0,2)\n";
    const VIOLATING: &str = "P0: W(0,1) W(0,2)\nP1: R(0,2) R(0,1)\n";

    #[test]
    fn verify_coherent_trace() {
        let out = run_ok(&["verify", "-"], COHERENT);
        assert!(out.contains("address 0: coherent"));
        assert!(out.contains("execution: coherent"));
    }

    /// `--addr` decides one address, so it must not report the whole
    /// execution: here a0 is incoherent and a99 has no operation.
    #[test]
    fn verify_addr_prints_only_the_address_verdict() {
        let trace = "P0: R(0,5)\n";
        assert!(run_ok(&["verify", "-"], trace).contains("execution: NOT coherent"));
        let out = run_ok(&["verify", "-", "--addr", "99"], trace);
        assert!(out.starts_with("address 99: coherent (0 ops)\n"), "{out}");
        assert!(!out.contains("execution"), "{out}");
        let out = run_ok(&["verify", "-", "--addr", "0"], trace);
        assert!(out.starts_with("address 0: VIOLATION"), "{out}");
        assert!(!out.contains("execution"), "{out}");
    }

    #[test]
    fn verify_detects_violation() {
        let out = run_ok(&["verify", "-"], VIOLATING);
        assert!(out.contains("VIOLATION"));
        assert!(out.contains("NOT coherent"));
    }

    #[test]
    fn verify_strategies() {
        for strat in ["auto", "backtracking", "sat"] {
            let out = run_ok(&["verify", "-", "--strategy", strat], COHERENT);
            assert!(out.contains("coherent"), "{strat}");
        }
        assert!(run(
            &[
                "verify".into(),
                "-".into(),
                "--strategy".into(),
                "bogus".into()
            ],
            COHERENT
        )
        .is_err());
    }

    #[test]
    fn verify_jobs_flag_is_deterministic() {
        let trace = run_ok(&["gen", "--procs", "3", "--ops", "60", "--addrs", "5"], "");
        let strip = |s: &str| -> String {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let baseline = run_ok(&["verify", "-", "--jobs", "1"], &trace);
        for jobs in ["2", "8"] {
            let out = run_ok(&["verify", "-", "--jobs", jobs], &trace);
            assert_eq!(strip(&out), strip(&baseline), "jobs {jobs}");
        }
        assert!(baseline.contains("execution: coherent"));
        assert!(baseline.contains("jobs=1"));
    }

    #[test]
    fn verify_jobs_flag_on_violating_trace() {
        for jobs in ["1", "2", "8"] {
            let out = run_ok(&["verify", "-", "--jobs", jobs], VIOLATING);
            assert!(out.contains("VIOLATION"), "jobs {jobs}");
            assert!(out.contains("NOT coherent"), "jobs {jobs}");
        }
    }

    #[test]
    fn verify_prune_configs_agree() {
        let trace = run_ok(&["gen", "--procs", "3", "--ops", "60", "--addrs", "2"], "");
        let strip = |s: &str| -> String {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let baseline = run_ok(&["verify", "-"], &trace);
        for spec in ["all", "none"] {
            let out = run_ok(&["verify", "-", &format!("--prune={spec}")], &trace);
            assert_eq!(strip(&out), strip(&baseline), "prune {spec}");
        }
        // Verdict parity on a violating trace too.
        for spec in ["all", "none"] {
            let out = run_ok(&["verify", "-", &format!("--prune={spec}")], VIOLATING);
            assert!(out.contains("NOT coherent"), "prune {spec}");
        }
    }

    #[test]
    fn verify_tier_configs_agree() {
        // The tier split is accounting + routing only: verdict lines are
        // identical under both pipelines (the `#` report lines differ —
        // that is the point of the ablation).
        let trace = run_ok(&["gen", "--procs", "3", "--ops", "60", "--addrs", "2"], "");
        let strip = |s: &str| -> String {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let baseline = run_ok(&["verify", "-"], &trace);
        assert!(
            baseline.contains("tier: pipeline=closure,exact"),
            "{baseline}"
        );
        for spec in ["closure,exact", "exact"] {
            let out = run_ok(&["verify", "-", &format!("--tier={spec}")], &trace);
            assert_eq!(strip(&out), strip(&baseline), "tier {spec}");
            assert!(out.contains(&format!("tier: pipeline={spec}")), "{out}");
        }
        for spec in ["closure,exact", "exact"] {
            let out = run_ok(&["verify", "-", &format!("--tier={spec}")], VIOLATING);
            assert!(out.contains("NOT coherent"), "tier {spec}");
        }
    }

    #[test]
    fn verify_tier_rejects_unknown_pipeline() {
        for spec in ["bogus", "exact,closure", ""] {
            let e = run(
                &["verify".into(), "-".into(), format!("--tier={spec}")],
                COHERENT,
            )
            .expect_err(&format!("--tier={spec} should fail"));
            assert!(e.0.contains("tier"), "{spec}: {}", e.0);
        }
    }

    #[test]
    fn sim_reports_tier_accounting() {
        let out = run_ok(&["sim", "--cpus", "3", "--instrs", "30", "--verify"], "");
        assert!(out.contains("tier: pipeline=closure,exact"), "{out}");
        let exact = run_ok(
            &[
                "sim", "--cpus", "3", "--instrs", "30", "--verify", "--tier", "exact",
            ],
            "",
        );
        assert!(exact.contains("tier: pipeline=exact"), "{exact}");
    }

    #[test]
    fn verify_tier_only_relabels() {
        // `--tier exact` moves addresses from the frontline count to the
        // escalated one; the verdicts and the search work are the same.
        let generated = run_ok(
            &[
                "gen", "--procs", "4", "--ops", "120", "--addrs", "3", "--seed", "5",
            ],
            "",
        );
        for trace in [generated.as_str(), CONTENDED, VIOLATING] {
            let [tiered, exact] = ["closure,exact", "exact"]
                .map(|tier| run_ok(&["verify", "-", "--jobs", "1", "--tier", tier], trace));
            let untiered = |out: &str| -> Vec<String> {
                out.lines()
                    .filter(|l| !l.starts_with("# tier:"))
                    .map(str::to_string)
                    .collect()
            };
            assert_eq!(untiered(&tiered), untiered(&exact), "{tiered}\n{exact}");
            assert!(tiered.contains("# search:"), "{tiered}");
        }
        let exact = run_ok(
            &["verify", "-", "--jobs", "1", "--tier", "exact"],
            &generated,
        );
        assert!(exact.contains("escalated=3"), "{exact}");
        assert!(exact.contains("# search: states=0 "), "{exact}");
    }

    #[test]
    fn verify_prune_rejects_unknown_technique() {
        // The switch has two values; the retired per-technique spellings
        // are errors that name them.
        for spec in [
            "windows",
            "symmetry",
            "nogoods",
            "windows,nogoods",
            "bogus",
            "",
        ] {
            let e = run(
                &["verify".into(), "-".into(), format!("--prune={spec}")],
                COHERENT,
            )
            .expect_err(&format!("--prune={spec} should fail"));
            assert!(
                e.0.contains("--prune") && e.0.contains("expected all or none"),
                "{spec}: {}",
                e.0
            );
        }
    }

    #[test]
    fn verify_metrics_include_prune_counters() {
        let out = run_ok(&["verify", "-", "--metrics"], CONTENDED);
        for field in ["window_prunes=", "symmetry_prunes="] {
            assert!(out.contains(field), "expected {field} in:\n{out}");
        }
        // The retired nogood counters are no longer reported.
        assert!(!out.contains("nogood"), "{out}");
        // Inline `# search:` line carries them even without --metrics.
        let out = run_ok(&["verify", "-"], CONTENDED);
        assert!(out.contains("window_prunes="), "inline report:\n{out}");
    }

    #[test]
    fn sim_verify_accepts_prune() {
        for spec in ["all", "none"] {
            let out = run_ok(
                &[
                    "sim",
                    "--cpus",
                    "3",
                    "--instrs",
                    "30",
                    "--verify",
                    &format!("--prune={spec}"),
                ],
                "",
            );
            assert!(out.contains("# verification: coherent"), "prune {spec}");
        }
        assert!(run(
            &["sim".into(), "--verify".into(), "--prune=bogus".into()],
            ""
        )
        .is_err());
    }

    #[test]
    fn sc_models() {
        let sb = "P0: W(0,1) R(1,0)\nP1: W(1,1) R(0,0)\n";
        let out = run_ok(&["sc", "-", "--model", "sc"], sb);
        assert!(out.contains("VIOLATION"));
        let out = run_ok(&["sc", "-", "--model", "tso"], sb);
        assert!(out.contains("consistent"));
    }

    #[test]
    fn sc_reports_search_stats_inline() {
        // The kernel-backed engines render SearchStats through the same
        // `# search:` pretty-printer path as `verify`.
        let sb = "P0: W(0,1) R(1,0)\nP1: W(1,1) R(0,0)\n";
        for model in ["sc", "tso", "pso"] {
            let out = run_ok(&["sc", "-", "--model", model], sb);
            assert!(out.contains("# search:"), "model {model}:\n{out}");
            assert!(out.contains("states="), "model {model}:\n{out}");
        }
    }

    #[test]
    fn sc_budget_reports_unknown_with_progress() {
        let contended =
            "P0: W(0,1) W(1,1) R(2,0)\nP1: W(1,2) W(2,1) R(0,0)\nP2: W(2,2) W(0,2) R(1,0)\n";
        let out = run_ok(&["sc", "-", "--model", "tso", "--budget", "1"], contended);
        assert!(out.contains("unknown"), "{out}");
        assert!(out.contains("states"), "{out}");
    }

    #[test]
    fn sc_metrics_emit_run_report() {
        let sb = "P0: W(0,1) R(1,0)\nP1: W(1,1) R(0,0)\n";
        let out = run_ok(&["sc", "-", "--model", "pso", "--metrics"], sb);
        assert!(out.contains("# sc:"), "{out}");
        assert!(out.contains("model=PSO"), "{out}");
        let json = run_ok(&["sc", "-", "--model", "sc", "--metrics=json"], sb);
        assert!(json.contains("\"search\""), "{json}");
    }

    #[test]
    fn sc_rejects_unknown_flags() {
        let e = run(
            &["sc".into(), "-".into(), "--jobs".into(), "2".into()],
            "P0: W(0,1)\n",
        )
        .expect_err("--jobs is not an sc flag");
        assert!(e.0.contains("unknown flag"), "{}", e.0);
    }

    #[test]
    fn sc_axiom_models() {
        // The declared models beyond the serialization-based four: MP is
        // forbidden under RA (the flag rf carries happens-before) but
        // allowed under ARM-dob (W→W is not dob-ordered).
        let mp = "P0: W(0,1) W(1,1)\nP1: R(1,1) R(0,0)\n";
        let out = run_ok(&["sc", "-", "--model", "ra"], mp);
        assert!(out.contains("RA: VIOLATION"), "{out}");
        let out = run_ok(&["sc", "-", "--model", "arm-dob"], mp);
        assert!(out.contains("ARM-dob: consistent"), "{out}");
        let e = run(
            &["sc".into(), "-".into(), "--model".into(), "rmo".into()],
            mp,
        )
        .expect_err("rmo is not a declared model");
        assert!(e.0.contains("unknown model"), "{}", e.0);
    }

    #[test]
    fn sc_engine_selection() {
        let sb = "P0: W(0,1) R(1,0)\nP1: W(1,1) R(0,0)\n";
        // Both engines agree on SB under TSO; the engine line names the
        // decider that ran.
        for engine in ["compiled", "sat"] {
            let out = run_ok(&["sc", "-", "--model", "tso", "--engine", engine], sb);
            assert!(out.contains("TSO: consistent"), "{engine}:\n{out}");
            assert!(out.contains(&format!("# engine={engine}")), "{out}");
        }
        let e = run(
            &["sc".into(), "-".into(), "--engine".into(), "brute".into()],
            sb,
        )
        .expect_err("brute is not an engine");
        assert!(e.0.contains("unknown engine"), "{}", e.0);
    }

    #[test]
    fn sc_ra_tier_pipeline() {
        // SB has unique reads-from candidates, so the polynomial RA tier
        // decides it; the `--tier exact` ablation reaches the same verdict
        // through the exact graph search.
        let sb = "P0: W(0,1) R(1,0)\nP1: W(1,1) R(0,0)\n";
        let out = run_ok(&["sc", "-", "--model", "ra"], sb);
        assert!(out.contains("RA: consistent"), "{out}");
        assert!(out.contains("tier=frontline"), "{out}");
        let out = run_ok(&["sc", "-", "--model", "ra", "--tier", "exact"], sb);
        assert!(out.contains("RA: consistent"), "{out}");
        assert!(out.contains("tier=exact"), "{out}");
    }

    #[test]
    fn classify_reports_complexity() {
        let out = run_ok(&["classify", "-"], COHERENT);
        assert!(out.contains("procs=2"));
        assert!(out.contains("address 0"));
    }

    #[test]
    fn classify_counts_a_final_only_address() {
        // Address 1 carries only a final value: it is an address of the
        // trace, with an `address` line of its own and a place in `addrs=`.
        let t = "final 1 = 5\nP0: W(0,1) R(0,1)\nP1: R(0,1)\n";
        let out = run_ok(&["classify", "-"], t);
        assert!(out.contains("addrs=2"), "{out}");
        assert_eq!(out.lines().filter(|l| l.starts_with("address ")).count(), 2);
    }

    #[test]
    fn sc_budget_message_fits_a_per_address_budget() {
        // The budget bounds each search (each address's, under Coherence)
        // and the count sums them all: the message claims no more.
        let gen = [
            "gen", "--procs", "4", "--ops", "200", "--addrs", "3", "--seed", "5", "--reuse", "80",
        ];
        let trace = run_ok(&gen, "");
        for model in ["coherence", "sc"] {
            let out = run_ok(&["sc", "-", "--model", model, "--budget", "1"], &trace);
            let want = ": unknown (budget exhausted: a search passed its 1-state limit; \
                        2 states visited in all)\n# engine=compiled tier=exact\n\
                        # search: states=2 ";
            assert!(out.contains(want), "{model}: {out}");
        }
    }

    #[test]
    fn explain_violating_trace() {
        let out = run_ok(&["explain", "-"], VIOLATING);
        assert!(out.contains("minimal incoherent core"));
    }

    #[test]
    fn explain_coherent_trace() {
        let out = run_ok(&["explain", "-"], COHERENT);
        assert!(out.contains("nothing to explain"));
    }

    #[test]
    fn gen_emits_parseable_trace() {
        let out = run_ok(&["gen", "--procs", "3", "--ops", "20", "--seed", "5"], "");
        let t = vermem_trace::fmt::parse_trace(&out).expect("generated trace parses");
        assert_eq!(t.num_ops(), 20);
    }

    #[test]
    fn gen_then_verify_round_trip() {
        let trace = run_ok(&["gen", "--procs", "3", "--ops", "30"], "");
        let out = run_ok(&["verify", "-"], &trace);
        assert!(out.contains("execution: coherent"));
    }

    #[test]
    fn inject_then_verify_detects() {
        let trace = run_ok(&["gen", "--procs", "3", "--ops", "30"], "");
        let injected = run_ok(&["inject", "-", "--kind", "corrupt-read"], &trace);
        let out = run_ok(&["verify", "-"], &injected);
        assert!(out.contains("NOT coherent"));
    }

    #[test]
    fn reduce_dimacs() {
        let dimacs = "p cnf 2 2\n1 2 0\n-1 2 0\n";
        for figure in ["4.1", "5.1", "5.2"] {
            let out = run_ok(&["reduce", "-", "--figure", figure], dimacs);
            let t = vermem_trace::fmt::parse_trace(&out).expect("reduction parses");
            assert!(t.num_ops() > 0, "{figure}");
        }
    }

    #[test]
    fn reduce_then_verify_is_equisatisfiable() {
        // (x1)(¬x1): UNSAT → incoherent.
        let out = run_ok(&["reduce", "-"], "p cnf 1 2\n1 0\n-1 0\n");
        let verdict = run_ok(&["verify", "-"], &out);
        assert!(verdict.contains("NOT coherent"));
    }

    #[test]
    fn sim_emits_and_verifies() {
        let out = run_ok(&["sim", "--cpus", "3", "--instrs", "30", "--verify"], "");
        assert!(out.contains("# verification: coherent"));
    }

    #[test]
    fn sim_verify_with_jobs() {
        for jobs in ["1", "4"] {
            let out = run_ok(
                &[
                    "sim", "--cpus", "3", "--instrs", "30", "--verify", "--jobs", jobs,
                ],
                "",
            );
            assert!(out.contains("# verification: coherent"), "jobs {jobs}");
        }
    }

    #[test]
    fn sim_online_mode() {
        let out = run_ok(&["sim", "--cpus", "3", "--instrs", "30", "--online"], "");
        assert!(out.contains("# online check: clean"));
        let out = run_ok(&["sim", "--cpus", "3", "--instrs", "30", "--verify"], "");
        assert!(out.contains("# verification: coherent"));
        // The directory machine is retired: its flag is an unknown flag.
        let e = run(&["sim".into(), "--directory".into()], "").expect_err("--directory is retired");
        assert!(e.0.contains("unknown flag --directory"), "{}", e.0);
    }

    #[test]
    fn serve_synthesizes_and_verifies_streams() {
        let out = run_ok(
            &[
                "serve",
                "--streams",
                "2",
                "--instrs",
                "60",
                "--window",
                "64",
                "--jobs",
                "1",
            ],
            "",
        );
        assert!(out.contains("# stream 0 (sim:1): coherent"), "{out}");
        assert!(out.contains("# stream 1 (sim:2): coherent"), "{out}");
        assert!(out.contains("# serve: 2 stream(s), 0 incoherent"), "{out}");
        assert!(out.contains("ops/s sustained"), "{out}");
    }

    #[test]
    fn serve_surfaces_faulty_streams() {
        // A corrupt-fill fault in every synthesized stream: at least one
        // must verify incoherent, and serve must say so per stream and in
        // the aggregate line.
        let out = run_ok(
            &[
                "serve",
                "--streams",
                "3",
                "--instrs",
                "60",
                "--fault",
                "--window",
                "32",
            ],
            "",
        );
        assert!(out.contains("VIOLATION at address"), "{out}");
        assert!(!out.contains(" 0 incoherent"), "{out}");
    }

    #[test]
    fn serve_reads_stream_files_and_is_window_invariant() {
        // Write one v2 batch file and one faulty v3 event stream, then
        // serve both; verdicts must match batch verification regardless
        // of window and chunk size.
        let cap = vermem_sim::Machine::run(
            &vermem_sim::random_program(&vermem_sim::WorkloadConfig {
                cpus: 3,
                instrs_per_cpu: 20,
                addrs: 3,
                write_fraction: 0.5,
                rmw_fraction: 0.0,
                seed: 11,
            }),
            vermem_sim::MachineConfig {
                seed: 11,
                ..Default::default()
            },
        );
        let v2 = scratch("serve-v2");
        std::fs::write(&v2, vermem_trace::binary::encode_trace(&cap.trace)).unwrap();
        let v3 = scratch("serve-v3");
        std::fs::write(&v3, vermem_sim::event_stream_bytes(&cap).unwrap()).unwrap();
        let v2s = v2.to_string_lossy().to_string();
        let v3s = v3.to_string_lossy().to_string();
        for window in ["16", "unbounded"] {
            for chunk in ["7", "65536"] {
                let out = run_ok(
                    &["serve", &v2s, &v3s, "--window", window, "--chunk", chunk],
                    "",
                );
                assert!(
                    out.contains("# serve: 2 stream(s), 0 incoherent"),
                    "window {window} chunk {chunk}: {out}"
                );
            }
        }
        let _ = std::fs::remove_file(&v2);
        let _ = std::fs::remove_file(&v3);
    }

    #[test]
    fn serve_metrics_report_streaming_receipts() {
        let out = run_ok(
            &["serve", "--streams", "1", "--instrs", "40", "--metrics"],
            "",
        );
        assert!(out.contains("sustained_ops_per_sec"), "{out}");
        assert!(out.contains("peak_retained_windows"), "{out}");
        let e = run(&["serve".into(), "--bogus".into(), "7".into()], "").unwrap_err();
        assert!(e.0.contains("unknown flag"), "{}", e.0);
    }

    #[test]
    fn serve_obs_addr_starts_introspection_server() {
        // Ephemeral port: the bound address is printed on a '# obs:' line
        // and the run's verdict lines are unchanged by the server.
        let out = run_ok(
            &[
                "serve",
                "--streams",
                "1",
                "--instrs",
                "40",
                "--obs-addr",
                "127.0.0.1:0",
            ],
            "",
        );
        assert!(out.contains("# obs: serving on 127.0.0.1:"), "{out}");
        assert!(out.contains("# stream 0 (sim:1): coherent"), "{out}");
        assert!(out.contains("# serve: 1 stream(s), 0 incoherent"), "{out}");
        let e = run(
            &[
                "serve".into(),
                "--streams".into(),
                "1".into(),
                "--obs-addr".into(),
                "not-an-addr".into(),
            ],
            "",
        )
        .unwrap_err();
        assert!(e.0.contains("cannot bind obs server"), "{}", e.0);
    }

    #[test]
    fn serve_forensics_writes_jsonl_bundles() {
        let dir = scratch("forensics");
        let dirs = dir.to_string_lossy().to_string();
        let out = run_ok(
            &[
                "serve",
                "--streams",
                "3",
                "--instrs",
                "60",
                "--fault",
                "--window",
                "32",
                "--forensics",
                &dirs,
            ],
            "",
        );
        assert!(out.contains("VIOLATION at address"), "{out}");
        assert!(out.contains("# forensics: stream "), "{out}");
        let mut bundles = 0usize;
        for entry in std::fs::read_dir(&dir).expect("forensics dir exists") {
            let path = entry.unwrap().path();
            let doc = std::fs::read_to_string(&path).unwrap();
            for line in doc.lines() {
                let json = vermem_util::json::parse_json(line).expect("JSONL line parses");
                assert_eq!(
                    json.get("schema").and_then(|s| s.as_str()),
                    Some(vermem_coherence::FORENSIC_SCHEMA)
                );
                assert!(json.get("latency_us").is_some(), "{line}");
                assert!(json.get("window_ops").and_then(|w| w.as_arr()).is_some());
                bundles += 1;
            }
        }
        assert!(bundles > 0, "no forensic bundles written:\n{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_forensics_does_not_change_verdict_lines() {
        let dir = scratch("forensics-parity");
        let dirs = dir.to_string_lossy().to_string();
        let args_base = ["serve", "--streams", "2", "--instrs", "50", "--fault"];
        let plain = run_ok(&args_base, "");
        let mut with = args_base.to_vec();
        with.extend(["--forensics", &dirs]);
        let recorded = run_ok(&with, "");
        // Verdict lines are timing-free prefixes of the per-stream lines;
        // they must agree exactly with the recorder enabled.
        let verdicts = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.starts_with("# stream "))
                .map(|l| l.split(" — ").next().unwrap().to_string())
                .collect()
        };
        assert_eq!(verdicts(&plain), verdicts(&recorded));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explain_and_verify_accept_binary_trace_files() {
        // Satellite: one decode path — binary files (v2 batch and v3
        // event-stream framings) work everywhere text traces do.
        let violating = vermem_trace::fmt::parse_trace(VIOLATING).unwrap();
        let v2 = scratch("explain-v2");
        std::fs::write(&v2, vermem_trace::binary::encode_trace(&violating)).unwrap();
        let out = run_ok(&["explain", v2.to_str().unwrap()], "");
        assert!(out.contains("minimal incoherent core"), "{out}");
        let out = run_ok(&["verify", v2.to_str().unwrap()], "");
        assert!(out.contains("NOT coherent"), "{out}");
        let _ = std::fs::remove_file(&v2);

        // v3 temporal framing from a healthy capture round-trips too.
        let cap = vermem_sim::Machine::run(
            &vermem_sim::random_program(&vermem_sim::WorkloadConfig {
                cpus: 3,
                instrs_per_cpu: 15,
                addrs: 2,
                write_fraction: 0.5,
                rmw_fraction: 0.0,
                seed: 9,
            }),
            vermem_sim::MachineConfig {
                seed: 9,
                ..Default::default()
            },
        );
        let v3 = scratch("explain-v3");
        std::fs::write(&v3, vermem_sim::event_stream_bytes(&cap).unwrap()).unwrap();
        let out = run_ok(&["explain", v3.to_str().unwrap()], "");
        assert!(out.contains("nothing to explain"), "{out}");
        let _ = std::fs::remove_file(&v3);
    }

    #[test]
    fn litmus_table() {
        let out = run_ok(&["litmus"], "");
        assert!(out.contains("SB"));
        assert!(out.contains("IRIW"));
        // The six-model table: RA and ARM-dob columns, with IRIW showing
        // the canonical split (RA yes, ARM-dob no).
        assert!(out.contains("ARM-dob"), "{out}");
        let iriw = out
            .lines()
            .find(|l| l.starts_with("IRIW "))
            .expect("IRIW row");
        assert!(iriw.trim_end().ends_with("yes       no"), "{iriw}");
    }

    #[test]
    fn sat_command_solves_dimacs() {
        let out = run_ok(&["sat", "-"], "p cnf 2 2\n1 2 0\n-1 2 0\n");
        assert!(out.contains("s SATISFIABLE"));
        assert!(out.contains("v "));
        let out = run_ok(&["sat", "-"], "p cnf 1 2\n1 0\n-1 0\n");
        assert!(out.contains("s UNSATISFIABLE"));
    }

    #[test]
    fn sat_command_certifies_pigeonhole_refutation() {
        // Three pigeons, two holes: variable 2(i-1)+j puts pigeon i in
        // hole j. Refuting it takes conflict analysis, so the certified
        // answer rests on a proof with learnt lemmas.
        let php = "p cnf 6 9\n1 2 0\n3 4 0\n5 6 0\n\
                   -1 -3 0\n-1 -5 0\n-3 -5 0\n-2 -4 0\n-2 -6 0\n-4 -6 0\n";
        let out = run_ok(&["sat", "-"], php);
        assert!(out.starts_with("s UNSATISFIABLE\n"), "{out}");
        let (result, stats) =
            vermem_sat::solve_certified(&vermem_sat::dimacs::parse_dimacs(php).unwrap());
        assert!(matches!(result, vermem_sat::SatResult::Unsat));
        assert!(stats.conflicts > 0, "{stats:?}");
        assert!(out.contains(&stats.to_report().to_inline()), "{out}");
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&[], "").is_err());
        assert!(run(&["bogus".into()], "").is_err());
        assert!(run(&["verify".into()], "").is_err()); // missing file
        assert!(run(&["verify".into(), "-".into()], "P9: W(1)\n").is_err()); // bad trace
    }

    #[test]
    fn help_everywhere() {
        assert!(run_ok(&["help"], "").contains("USAGE"));
        assert!(run_ok(&["verify", "--help"], "").contains("USAGE"));
    }

    // ---- observability flags -----------------------------------------

    /// A write-contended trace that forces the backtracking search to do
    /// real work (so search counters and the depth histogram are non-empty).
    const CONTENDED: &str = "P0: W(0,1) R(0,2) W(0,3) R(0,1)\nP1: W(0,2) R(0,3) W(0,1) R(0,2)\n";

    /// Unique scratch path in the system temp dir (no tempfile crate).
    fn scratch(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "vermem-cli-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn metrics_json_last_line_parses() {
        let out = run_ok(&["verify", "-", "--metrics=json", "--jobs", "2"], CONTENDED);
        let last = out.lines().last().expect("output has lines");
        let json = vermem_util::json::parse_json(last).expect("metrics line is valid JSON");
        assert_eq!(
            json.get("schema").and_then(|s| s.as_str()),
            Some(vermem_util::obs::report::RUN_REPORT_SCHEMA)
        );
        let sections = json
            .get("sections")
            .and_then(|s| s.as_arr())
            .expect("sections array");
        let names: Vec<&str> = sections
            .iter()
            .filter_map(|s| s.get("name").and_then(|n| n.as_str()))
            .collect();
        assert!(names.contains(&"verify"), "got sections {names:?}");
        assert!(names.contains(&"search"), "got sections {names:?}");
        assert!(names.contains(&"counters"), "got sections {names:?}");
    }

    #[test]
    fn metrics_text_mode_prefixes_hash() {
        let out = run_ok(&["verify", "-", "--metrics"], CONTENDED);
        assert!(
            out.lines().any(|l| l.starts_with("# counters:")),
            "expected a '# counters: ...' line in:\n{out}"
        );
        assert!(run(
            &["verify".into(), "-".into(), "--metrics=xml".into()],
            COHERENT
        )
        .is_err());
    }

    #[test]
    fn trace_out_writes_monotonic_chrome_trace() {
        let path = scratch("trace");
        let out = run_ok(
            &["sim", "--verify", "--trace-out", path.to_str().unwrap()],
            "",
        );
        assert!(out.contains(" ops,"), "sim output intact:\n{out}");
        let text = std::fs::read_to_string(&path).expect("trace file written");
        let _ = std::fs::remove_file(&path);
        let json = vermem_util::json::parse_json(&text).expect("trace file is valid JSON");
        let events = json
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents array");
        assert!(!events.is_empty(), "expected at least one trace event");
        let ts: Vec<u64> = events
            .iter()
            .filter_map(|e| e.get("ts").and_then(|t| t.as_u64()))
            .collect();
        assert_eq!(ts.len(), events.len(), "every event carries ts");
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts monotonic: {ts:?}");
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("sim.run")));
    }

    #[test]
    fn no_obs_flags_emit_nothing() {
        let out = run_ok(&["verify", "-", "--jobs", "2"], COHERENT);
        assert!(!out.contains("\"schema\""), "no JSON report:\n{out}");
        assert!(!out.contains("# counters:"), "no text metrics:\n{out}");
        let out = run_ok(&["sim"], "");
        assert!(!out.contains("\"schema\""), "no JSON report:\n{out}");
    }

    #[test]
    fn retired_ablation_spellings_are_rejected() {
        // The pre-refactor machines are gone: a typed error names the
        // engines that exist.
        let sb = "P0: W(0,1) R(1,0)\nP1: W(1,1) R(0,0)\n";
        let e = run(
            &["sc".into(), "-".into(), "--engine".into(), "legacy".into()],
            sb,
        )
        .expect_err("the legacy engine is retired");
        assert!(
            e.0.contains("unknown engine 'legacy' (expected compiled|sat)"),
            "{}",
            e.0
        );
        // The stream storage switch is gone too: its flag now fails the
        // unknown-flag check like any other.
        let flag = "hot-path";
        let e = run(&["serve".into(), format!("--{flag}"), "dense".into()], "")
            .expect_err("the storage switch is retired");
        assert!(e.0.contains(&format!("unknown flag --{flag}")), "{}", e.0);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        for cmd in [
            vec!["sim", "--bogus"],
            vec!["sim", "--bogus", "3"],
            vec!["verify", "-", "--bogus"],
            vec!["sat", "-", "--metrics"],
            // Every remaining command routes through expect_flags too.
            vec!["sc", "-", "--bogus", "1"],
            vec!["classify", "-", "--bogus", "1"],
            vec!["explain", "-", "--bogus", "1"],
            vec!["gen", "--procs", "1", "--ops", "1", "--bogus", "1"],
            vec!["inject", "-", "--kind", "stale-read", "--bogus", "1"],
            vec!["reduce", "-", "--bogus", "1"],
            vec!["serve", "--bogus", "1"],
            vec!["litmus", "--bogus", "1"],
        ] {
            let args: Vec<String> = cmd.iter().map(|s| s.to_string()).collect();
            let e = run(&args, COHERENT).expect_err(&format!("{cmd:?} should fail"));
            // Bare or valued, an unknown name is reported as unknown.
            assert!(e.0.contains("unknown flag --"), "{cmd:?}: {}", e.0);
        }
        // A known flag without its value is reported as such.
        let e = run(&["sim".into(), "--cpus".into()], "").expect_err("no value");
        assert!(e.0.contains("--cpus requires a value"), "{}", e.0);
    }
}
