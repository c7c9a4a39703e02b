//! The multiprocessor: per-CPU caches over a word memory, kept coherent by
//! a MESI snooping bus, with optional per-CPU store buffers (TSO mode),
//! deterministic seeded scheduling, trace capture and write-order capture
//! (§5.2's augmented memory system).
//!
//! The paper's introduction names snooping hierarchies and directory
//! controllers as two sources of executions. The verifiers read only what
//! a run commits — the per-process histories and the per-address write
//! order — so one organization suffices to produce their input: the bus
//! here.

use crate::cache::Cache;
use crate::fault::{FaultPlan, FaultState};
use crate::mesi::{snoop_transition, BusTransaction, MesiState};
use crate::program::{Instr, Program};
use std::collections::{BTreeMap, VecDeque};
use vermem_trace::{Addr, Op, OpRef, ProcId, ProcessHistory, Trace, Value};
use vermem_util::rng::StdRng;

/// Machine configuration.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Direct-mapped lines per CPU cache.
    pub cache_lines: usize,
    /// Enable per-CPU FIFO store buffers (TSO); without them every access
    /// commits in issue order (SC). A load never forwards from the buffer:
    /// a load of an address the buffer holds first drains the buffer
    /// through the youngest store to that address.
    pub store_buffers: bool,
    /// Store buffer capacity (entries) when enabled.
    pub store_buffer_capacity: usize,
    /// Probability per scheduling step that a CPU with a non-empty buffer
    /// drains one entry instead of issuing its next instruction.
    pub drain_probability: f64,
    /// Scheduler / drain RNG seed.
    pub seed: u64,
    /// One-shot protocol faults to inject.
    pub faults: Vec<FaultPlan>,
}
impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cache_lines: 8,
            store_buffers: false,
            store_buffer_capacity: 4,
            drain_probability: 0.3,
            seed: 0xFEED,
            faults: Vec::new(),
        }
    }
}

/// Counters from a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Cache hits (reads and silent writes).
    pub hits: u64,
    /// Misses requiring a bus transaction with data transfer.
    pub misses: u64,
    /// Invalidations performed by snoopers.
    pub invalidations: u64,
    /// Dirty writebacks (snooper flushes and evictions).
    pub writebacks: u64,
    /// Store-buffer drains.
    pub drains: u64,
    /// Global scheduling steps executed.
    pub steps: u64,
}

impl MachineStats {
    /// Render as a `sim` section of the unified run report (the one
    /// shared pretty-printer in [`vermem_util::obs::report`]).
    pub fn to_report(&self) -> vermem_util::obs::report::RunReportSection {
        vermem_util::obs::report::RunReportSection::new("sim")
            .with("hits", self.hits)
            .with("misses", self.misses)
            .with("invalidations", self.invalidations)
            .with("writebacks", self.writebacks)
            .with("drains", self.drains)
            .with("steps", self.steps)
    }

    /// Batch-flush these counters into the metrics registry under
    /// `sim.*`. No-op when observability is disabled.
    pub fn flush_obs(&self) {
        use vermem_util::obs;
        if !obs::enabled() {
            return;
        }
        obs::counter_add("sim.hits", self.hits);
        obs::counter_add("sim.misses", self.misses);
        obs::counter_add("sim.invalidations", self.invalidations);
        obs::counter_add("sim.writebacks", self.writebacks);
        obs::counter_add("sim.drains", self.drains);
        obs::counter_add("sim.steps", self.steps);
    }
}

/// Everything captured from a run: the per-process operation trace (issue
/// order = program order), the per-address write order in commit order, and
/// the final memory image.
#[derive(Clone, Debug)]
pub struct CapturedExecution {
    /// The execution trace (input to the verifiers).
    pub trace: Trace,
    /// For each address, the committed write order — the §5.2 augmentation
    /// that makes coherence verification polynomial.
    pub write_order: BTreeMap<Addr, Vec<OpRef>>,
    /// Final memory contents (coherent view after full drain), usable as
    /// final-value constraints.
    pub final_memory: BTreeMap<Addr, Value>,
    /// The global event stream in machine order — writes at *commit* time,
    /// reads and RMWs at execution time — i.e. exactly the feed for the
    /// streaming checker (`vermem_coherence::OnlineVerifier`).
    pub event_log: Vec<(ProcId, Op)>,
    /// Run statistics.
    pub stats: MachineStats,
}

/// The snooping machine: MESI caches on an atomic broadcast bus.
pub struct Machine(());

impl Machine {
    /// Execute `program` to completion (all instructions issued, all store
    /// buffers drained) and return the captured execution.
    ///
    /// Each step draws the CPU to act from the CPUs that can; a CPU with a
    /// non-empty store buffer then draws whether to drain one entry
    /// instead of issuing. Without store buffers a step therefore draws
    /// exactly one number.
    pub fn run(program: &Program, cfg: MachineConfig) -> CapturedExecution {
        let mut span = vermem_util::span!("sim.run");
        let num_cpus = program.num_cpus();
        let mut m = Core {
            caches: (0..num_cpus).map(|_| Cache::new(cfg.cache_lines)).collect(),
            memory: BTreeMap::new(),
            faults: FaultState::new(&cfg.faults),
            stats: MachineStats::default(),
            buffers: (0..num_cpus).map(|_| VecDeque::new()).collect(),
            histories: vec![ProcessHistory::new(); num_cpus],
            write_order: BTreeMap::new(),
            event_log: Vec::new(),
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
        };
        let mut pc = vec![0usize; num_cpus];
        loop {
            // CPUs that can still act: instructions left or buffer entries.
            let ready: Vec<usize> = (0..num_cpus)
                .filter(|&c| pc[c] < program.streams()[c].len() || !m.buffers[c].is_empty())
                .collect();
            if ready.is_empty() {
                break;
            }
            let cpu = ready[m.rng.gen_range(0..ready.len())];
            m.stats.steps += 1;

            let must_drain = pc[cpu] >= program.streams()[cpu].len();
            let wants_drain = !m.buffers[cpu].is_empty()
                && (must_drain || m.rng.gen_bool(m.cfg.drain_probability));
            if wants_drain {
                m.drain_one(cpu);
                continue;
            }
            let instr = program.streams()[cpu][pc[cpu]];
            pc[cpu] += 1;
            m.execute(cpu, instr);
        }
        debug_assert!(m.buffers.iter().all(VecDeque::is_empty));

        // Flush dirty lines so the memory image is the coherent final state.
        for cache in &m.caches {
            for line in cache.lines() {
                if line.state.is_dirty() {
                    m.memory.insert(line.addr, line.value);
                }
            }
        }

        let mut trace = Trace::from_histories(m.histories);
        let final_memory = m.memory;
        for (&addr, &value) in &final_memory {
            trace.set_final(addr, value);
        }
        if span.is_recording() {
            span.arg("cpus", num_cpus as u64);
            span.arg("steps", m.stats.steps);
            m.stats.flush_obs();
        }
        CapturedExecution {
            trace,
            write_order: m.write_order,
            event_log: m.event_log,
            final_memory,
            stats: m.stats,
        }
    }
}

struct BufferedStore {
    addr: Addr,
    value: Value,
    op_ref: OpRef,
}

/// The execution core: one run of a program — the caches over the word
/// memory, the store buffers, the armed faults, the scheduler and the
/// capture.
struct Core {
    cfg: MachineConfig,
    caches: Vec<Cache>,
    memory: BTreeMap<Addr, Value>,
    faults: FaultState,
    stats: MachineStats,
    buffers: Vec<VecDeque<BufferedStore>>,
    histories: Vec<ProcessHistory>,
    write_order: BTreeMap<Addr, Vec<OpRef>>,
    event_log: Vec<(ProcId, Op)>,
    rng: StdRng,
}

impl Core {
    fn record(&mut self, cpu: usize, op: Op) -> OpRef {
        let index = self.histories[cpu].len() as u32;
        self.histories[cpu].push(op);
        OpRef::new(cpu as u16, index)
    }

    fn execute(&mut self, cpu: usize, instr: Instr) {
        match instr {
            Instr::Read(addr) => {
                let op = Op::Read {
                    addr,
                    value: self.load(cpu, addr),
                };
                self.record(cpu, op);
                self.event_log.push((ProcId(cpu as u16), op));
            }
            Instr::Write(addr, value) => {
                let op_ref = self.record(cpu, Op::Write { addr, value });
                if self.cfg.store_buffers {
                    if self.buffers[cpu].len() >= self.cfg.store_buffer_capacity {
                        self.drain_one(cpu);
                    }
                    self.buffers[cpu].push_back(BufferedStore {
                        addr,
                        value,
                        op_ref,
                    });
                } else {
                    self.commit_write(cpu, addr, value, op_ref);
                }
            }
            Instr::Rmw(addr, kind) => {
                // Atomics drain the buffer (as on x86/SPARC) and then hold
                // the line exclusively across the read-modify-write.
                self.drain_all(cpu);
                let read = self.acquire_exclusive(cpu, addr);
                let write = kind.apply(read);
                let op = Op::Rmw { addr, read, write };
                let op_ref = self.record(cpu, op);
                self.commit(cpu, addr, write, op_ref, op);
            }
            Instr::Fence => {
                self.drain_all(cpu);
            }
        }
    }

    fn drain_one(&mut self, cpu: usize) {
        if let Some(entry) = self.buffers[cpu].pop_front() {
            self.stats.drains += 1;
            self.commit_write(cpu, entry.addr, entry.value, entry.op_ref);
        }
    }

    fn drain_all(&mut self, cpu: usize) {
        while !self.buffers[cpu].is_empty() {
            self.drain_one(cpu);
        }
    }

    /// A load. When the store buffer holds a store to the same address, the
    /// buffer is drained through the youngest matching entry first rather
    /// than forwarded: raw store-to-load forwarding makes the local store
    /// visible to its own loads *before* it is globally ordered, a
    /// behaviour no single global serialization can express (and hence
    /// outside the relaxed-order TSO model the verifiers check). Draining
    /// is always TSO-legal and keeps the machine's traces checkable.
    ///
    /// A miss broadcasts BusRd and fills Exclusive when no other cache
    /// keeps a copy, else Shared.
    fn load(&mut self, cpu: usize, addr: Addr) -> Value {
        if let Some(last_match) = self.buffers[cpu].iter().rposition(|e| e.addr == addr) {
            for _ in 0..=last_match {
                self.drain_one(cpu);
            }
        }
        if let Some(line) = self.caches[cpu].lookup(addr) {
            self.stats.hits += 1;
            return line.value;
        }
        self.stats.misses += 1;
        let state = if self.snoop(cpu, addr, BusTransaction::BusRd) {
            MesiState::Shared
        } else {
            MesiState::Exclusive
        };
        let value = self.fetch(cpu, addr);
        self.fill(cpu, addr, value, state);
        value
    }

    /// Obtain the line in a writable state, returning its current value:
    /// silently on a Modified or Exclusive line, by BusUpgr on a Shared
    /// one, otherwise by a BusRdX miss. The core's commit turns the line
    /// Modified before anything else runs.
    fn acquire_exclusive(&mut self, cpu: usize, addr: Addr) -> Value {
        match self.caches[cpu].lookup(addr) {
            Some(line) if line.state.can_write_silently() => {
                self.stats.hits += 1;
                line.value
            }
            Some(line) => {
                let value = line.value;
                self.snoop(cpu, addr, BusTransaction::BusUpgr);
                value
            }
            None => {
                self.stats.misses += 1;
                self.snoop(cpu, addr, BusTransaction::BusRdX);
                let value = self.word(addr);
                self.fill(cpu, addr, value, MesiState::Exclusive);
                value
            }
        }
    }

    /// Broadcast `txn` for `addr` to all other caches; returns true if any
    /// other cache retains a valid copy afterwards. Dirty copies are
    /// flushed to memory so the issuer's fill observes them — unless a
    /// `StaleFill` fault swallows the flush.
    fn snoop(&mut self, cpu: usize, addr: Addr, txn: BusTransaction) -> bool {
        // A stale-fill fault is only meaningful when a remote dirty copy
        // would have supplied fresher data; don't burn the plan otherwise.
        let any_remote_dirty = (0..self.caches.len()).any(|o| {
            o != cpu
                && self.caches[o]
                    .lookup(addr)
                    .is_some_and(|l| l.state.is_dirty())
        });
        let stale = any_remote_dirty && self.faults.stale_fill(self.stats.steps, cpu);
        let mut shared = false;
        for other in 0..self.caches.len() {
            if other == cpu {
                continue;
            }
            let Some(line) = self.caches[other].lookup(addr) else {
                continue;
            };
            let action = snoop_transition(line.state, txn);
            if action.flush && !stale {
                let value = line.value;
                self.write_back(addr, value);
            }
            let invalidating = action.next_state == MesiState::Invalid;
            if invalidating && self.faults.drop_invalidation(self.stats.steps, other) {
                // Fault: the victim keeps its stale copy.
                shared = true;
                continue;
            }
            if invalidating {
                self.stats.invalidations += 1;
            }
            let line = self.caches[other].lookup_mut(addr).expect("present");
            line.state = action.next_state;
            if line.state.is_valid() {
                shared = true;
            }
        }
        shared
    }

    /// The word memory holds at `addr`.
    fn word(&self, addr: Addr) -> Value {
        self.memory.get(&addr).copied().unwrap_or(Value::INITIAL)
    }

    /// The word memory supplies to a read-miss fill at `cpu`, through an
    /// armed `CorruptFill` fault.
    fn fetch(&mut self, cpu: usize, addr: Addr) -> Value {
        let value = self.word(addr);
        match self.faults.corrupt_fill(self.stats.steps, cpu) {
            Some(mask) => Value(value.0 ^ mask.0),
            None => value,
        }
    }

    /// Write a dirty word back to memory.
    fn write_back(&mut self, addr: Addr, value: Value) {
        self.memory.insert(addr, value);
        self.stats.writebacks += 1;
    }

    /// Install `addr` at `cpu`, writing back a dirty victim.
    fn fill(&mut self, cpu: usize, addr: Addr, value: Value, state: MesiState) {
        if let Some(victim) = self.caches[cpu].fill(addr, value, state) {
            if victim.state.is_dirty() {
                self.write_back(victim.addr, victim.value);
            }
        }
    }

    fn commit_write(&mut self, cpu: usize, addr: Addr, value: Value, op_ref: OpRef) {
        self.acquire_exclusive(cpu, addr);
        self.commit(cpu, addr, value, op_ref, Op::Write { addr, value });
    }

    /// The tail of every store and RMW, on a line already acquired: the
    /// line takes `value`, unless an armed `LostWrite` fault drops it, and
    /// turns Modified, and `op` joins the write order and the event log.
    fn commit(&mut self, cpu: usize, addr: Addr, value: Value, op_ref: OpRef, op: Op) {
        let lost = self.faults.lose_write(self.stats.steps, cpu);
        let line = self.caches[cpu].lookup_mut(addr).expect("acquired");
        if !lost {
            line.value = value;
        }
        line.state = MesiState::Modified;
        self.write_order.entry(addr).or_default().push(op_ref);
        self.event_log.push((ProcId(cpu as u16), op));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::RmwKind;
    use vermem_trace::check_sc_schedule;

    fn run_sc(program: &Program, seed: u64) -> CapturedExecution {
        Machine::run(
            program,
            MachineConfig {
                seed,
                ..Default::default()
            },
        )
    }

    #[test]
    fn single_cpu_read_write() {
        let p = Program::from_streams(vec![vec![
            Instr::Write(Addr(0), Value(7)),
            Instr::Read(Addr(0)),
        ]]);
        let cap = run_sc(&p, 1);
        let h = &cap.trace.histories()[0];
        assert_eq!(
            h.ops()[0],
            Op::Write {
                addr: Addr(0),
                value: Value(7)
            }
        );
        assert_eq!(
            h.ops()[1],
            Op::Read {
                addr: Addr(0),
                value: Value(7)
            }
        );
        assert_eq!(cap.final_memory.get(&Addr(0)), Some(&Value(7)));
    }

    #[test]
    fn uninitialized_reads_return_initial() {
        let p = Program::from_streams(vec![vec![Instr::Read(Addr(3))]]);
        let cap = run_sc(&p, 1);
        assert_eq!(
            cap.trace.histories()[0].ops()[0],
            Op::Read {
                addr: Addr(3),
                value: Value::INITIAL
            }
        );
    }

    #[test]
    fn rmw_increment_chain_across_cpus() {
        let p = Program::from_streams(vec![
            vec![Instr::Rmw(Addr(0), RmwKind::Increment); 3],
            vec![Instr::Rmw(Addr(0), RmwKind::Increment); 3],
        ]);
        let cap = run_sc(&p, 42);
        assert_eq!(cap.final_memory.get(&Addr(0)), Some(&Value(6)));
        // Write order at addr 0 has all six RMWs.
        assert_eq!(cap.write_order[&Addr(0)].len(), 6);
    }

    #[test]
    fn compare_and_swap_semantics() {
        let p = Program::from_streams(vec![vec![
            Instr::Rmw(
                Addr(0),
                RmwKind::CompareAndSwap {
                    expected: Value(0),
                    new: Value(5),
                },
            ),
            Instr::Rmw(
                Addr(0),
                RmwKind::CompareAndSwap {
                    expected: Value(0),
                    new: Value(9),
                },
            ),
        ]]);
        let cap = run_sc(&p, 1);
        let ops = cap.trace.histories()[0].ops();
        assert_eq!(
            ops[0],
            Op::Rmw {
                addr: Addr(0),
                read: Value(0),
                write: Value(5)
            }
        );
        // Second CAS fails and writes back what it read.
        assert_eq!(
            ops[1],
            Op::Rmw {
                addr: Addr(0),
                read: Value(5),
                write: Value(5)
            }
        );
    }

    #[test]
    fn cache_eviction_writes_back_dirty_lines() {
        // Two addresses mapping to the same line in a 1-line cache.
        let p = Program::from_streams(vec![vec![
            Instr::Write(Addr(0), Value(1)),
            Instr::Write(Addr(1), Value(2)),
            Instr::Read(Addr(0)),
        ]]);
        let cap = Machine::run(
            &p,
            MachineConfig {
                cache_lines: 1,
                ..Default::default()
            },
        );
        assert_eq!(
            cap.trace.histories()[0].ops()[2],
            Op::Read {
                addr: Addr(0),
                value: Value(1)
            }
        );
        assert!(cap.stats.writebacks > 0);
    }

    #[test]
    fn sharing_then_writing_invalidates() {
        let p = Program::from_streams(vec![
            vec![Instr::Read(Addr(0)), Instr::Write(Addr(0), Value(1))],
            vec![Instr::Read(Addr(0)), Instr::Read(Addr(0))],
        ]);
        let cap = run_sc(&p, 7);
        assert!(cap.stats.steps >= 4);
        // Whatever the interleaving, the captured trace must be coherent;
        // spot-check via the exact verifier.
        assert!(vermem_coherence::verify_execution(&cap.trace).is_coherent());
    }

    #[test]
    fn sc_mode_runs_are_sequentially_consistent() {
        for seed in 0..10 {
            let p = crate::workload::random_program(&crate::workload::WorkloadConfig {
                cpus: 3,
                instrs_per_cpu: 20,
                addrs: 3,
                write_fraction: 0.4,
                rmw_fraction: 0.1,
                seed,
            });
            let cap = run_sc(&p, seed);
            let verdict = vermem_consistency::verify_axiom(
                &cap.trace,
                vermem_consistency::ModelId::Sc,
                &vermem_consistency::AxiomConfig::default(),
            )
            .verdict;
            let s = verdict
                .schedule()
                .unwrap_or_else(|| panic!("SC-mode machine must produce SC traces (seed {seed})"));
            check_sc_schedule(&cap.trace, s).unwrap();
        }
    }

    #[test]
    fn tso_mode_runs_are_coherent_per_address() {
        for seed in 0..10 {
            let p = crate::workload::random_program(&crate::workload::WorkloadConfig {
                cpus: 3,
                instrs_per_cpu: 25,
                addrs: 2,
                write_fraction: 0.5,
                rmw_fraction: 0.0,
                seed: 100 + seed,
            });
            let cap = Machine::run(
                &p,
                MachineConfig {
                    store_buffers: true,
                    seed: 100 + seed,
                    ..Default::default()
                },
            );
            assert!(
                vermem_coherence::verify_execution(&cap.trace).is_coherent(),
                "TSO machine must stay coherent (seed {seed})"
            );
        }
    }

    #[test]
    fn store_buffering_litmus_outcome_reachable_under_tso() {
        // Drive SB until the relaxed outcome appears: with store buffers it
        // must be reachable for some seed; the outcome must violate SC but
        // satisfy TSO.
        let p = Program::from_streams(vec![
            vec![Instr::Write(Addr(0), Value(1)), Instr::Read(Addr(1))],
            vec![Instr::Write(Addr(1), Value(1)), Instr::Read(Addr(0))],
        ]);
        let mut seen_relaxed = false;
        for seed in 0..200 {
            let cap = Machine::run(
                &p,
                MachineConfig {
                    store_buffers: true,
                    drain_probability: 0.1,
                    seed,
                    ..Default::default()
                },
            );
            let r0 = cap.trace.histories()[0].ops()[1].read_value().unwrap();
            let r1 = cap.trace.histories()[1].ops()[1].read_value().unwrap();
            if r0 == Value(0) && r1 == Value(0) {
                seen_relaxed = true;
                let decide = |id| {
                    vermem_consistency::verify_axiom(
                        &cap.trace,
                        id,
                        &vermem_consistency::AxiomConfig::default(),
                    )
                    .verdict
                };
                let sc = decide(vermem_consistency::ModelId::Sc);
                assert!(sc.is_violating(), "SB relaxed outcome must violate SC");
                let tso = decide(vermem_consistency::ModelId::Tso);
                assert!(tso.is_consistent(), "SB relaxed outcome is TSO-legal");
                break;
            }
        }
        assert!(
            seen_relaxed,
            "store buffers should expose the SB reordering"
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let p = crate::workload::random_program(&crate::workload::WorkloadConfig {
            cpus: 2,
            instrs_per_cpu: 15,
            addrs: 2,
            write_fraction: 0.5,
            rmw_fraction: 0.2,
            seed: 3,
        });
        let a = Machine::run(
            &p,
            MachineConfig {
                seed: 9,
                ..Default::default()
            },
        );
        let b = Machine::run(
            &p,
            MachineConfig {
                seed: 9,
                ..Default::default()
            },
        );
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.write_order, b.write_order);
    }
}
