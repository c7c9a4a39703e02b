//! A directory-based MSI coherence machine — the distributed-memory-
//! controller organization the paper's introduction names alongside
//! snooping hierarchies.
//!
//! Instead of broadcasting on a bus, each address has a home **directory**
//! entry tracking its global state: uncached, shared by a set of CPUs, or
//! owned exclusively. Misses send `GetS`/`GetM` requests to the directory,
//! which forwards invalidations/fetches to the relevant caches only.
//! Transactions are atomic (the textbook model), the machine is
//! sequentially consistent, and the same fault classes as the snooping
//! machine can be injected — including directory-specific ones
//! (out-of-date sharer sets manifest exactly like dropped invalidations).

use crate::cache::Cache;
use crate::fault::{FaultPlan, FaultState};
use crate::machine::{CapturedExecution, MachineStats};
use crate::mesi::MesiState;
use crate::program::{Instr, Program, RmwKind};
use std::collections::BTreeMap;
use vermem_trace::{Addr, Op, OpRef, ProcId, ProcessHistory, Trace, Value};
use vermem_util::rng::StdRng;

/// Global state of one address in the directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirState {
    /// No cache holds the line.
    Uncached,
    /// Clean copies at the listed CPUs.
    Shared(Vec<usize>),
    /// One CPU owns the line (possibly dirty).
    Owned(usize),
}

/// Configuration for the directory machine.
#[derive(Clone, Debug)]
pub struct DirectoryConfig {
    /// Direct-mapped lines per CPU cache.
    pub cache_lines: usize,
    /// Scheduler seed.
    pub seed: u64,
    /// One-shot faults (same classes as the snooping machine).
    pub faults: Vec<FaultPlan>,
}

impl Default for DirectoryConfig {
    fn default() -> Self {
        DirectoryConfig {
            cache_lines: 8,
            seed: 0xD1E,
            faults: Vec::new(),
        }
    }
}

/// The directory-based multiprocessor.
pub struct DirectoryMachine {
    cfg: DirectoryConfig,
    caches: Vec<Cache>,
    memory: BTreeMap<Addr, Value>,
    directory: BTreeMap<Addr, DirState>,
    histories: Vec<ProcessHistory>,
    write_order: BTreeMap<Addr, Vec<OpRef>>,
    event_log: Vec<(ProcId, Op)>,
    faults: FaultState,
    stats: MachineStats,
}

impl DirectoryMachine {
    /// Execute `program` to completion under the directory protocol.
    pub fn run(program: &Program, cfg: DirectoryConfig) -> CapturedExecution {
        let mut span = vermem_util::span!("sim.run");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let faults = FaultState::new(&cfg.faults);
        let mut m = DirectoryMachine {
            caches: (0..program.num_cpus())
                .map(|_| Cache::new(cfg.cache_lines))
                .collect(),
            memory: BTreeMap::new(),
            directory: BTreeMap::new(),
            histories: vec![ProcessHistory::new(); program.num_cpus()],
            write_order: BTreeMap::new(),
            event_log: Vec::new(),
            faults,
            stats: MachineStats::default(),
            cfg,
        };

        let mut pc = vec![0usize; program.num_cpus()];
        loop {
            let ready: Vec<usize> = (0..program.num_cpus())
                .filter(|&c| pc[c] < program.streams()[c].len())
                .collect();
            if ready.is_empty() {
                break;
            }
            let cpu = ready[rng.gen_range(0..ready.len())];
            m.stats.steps += 1;
            let instr = program.streams()[cpu][pc[cpu]];
            pc[cpu] += 1;
            m.execute(cpu, instr);
        }

        // Final flush of owned dirty lines for the memory image.
        for cache in &m.caches {
            for line in cache.lines() {
                if line.state.is_dirty() {
                    m.memory.insert(line.addr, line.value);
                }
            }
        }

        let mut trace = Trace::from_histories(m.histories);
        let final_memory = m.memory.clone();
        for (&addr, &value) in &final_memory {
            trace.set_final(addr, value);
        }
        if span.is_recording() {
            span.arg("cpus", program.num_cpus() as u64);
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

    fn record(&mut self, cpu: usize, op: Op) -> OpRef {
        let index = self.histories[cpu].len() as u32;
        self.histories[cpu].push(op);
        OpRef::new(cpu as u16, index)
    }

    fn dir(&mut self, addr: Addr) -> &mut DirState {
        self.directory.entry(addr).or_insert(DirState::Uncached)
    }

    fn execute(&mut self, cpu: usize, instr: Instr) {
        match instr {
            Instr::Read(addr) => {
                let value = self.load(cpu, addr);
                self.record(cpu, Op::Read { addr, value });
                self.event_log
                    .push((ProcId(cpu as u16), Op::Read { addr, value }));
            }
            Instr::Write(addr, value) => {
                let op_ref = self.record(cpu, Op::Write { addr, value });
                self.store(cpu, addr, value, op_ref);
                self.event_log
                    .push((ProcId(cpu as u16), Op::Write { addr, value }));
            }
            Instr::Rmw(addr, kind) => {
                let old = self.get_exclusive(cpu, addr);
                let new = match kind {
                    RmwKind::Increment => Value(old.0.wrapping_add(1)),
                    RmwKind::Swap(v) => v,
                    RmwKind::CompareAndSwap { expected, new } => {
                        if old == expected {
                            new
                        } else {
                            old
                        }
                    }
                };
                let line = self.caches[cpu].lookup_mut(addr).expect("exclusive");
                line.value = new;
                line.state = MesiState::Modified;
                let op_ref = self.record(
                    cpu,
                    Op::Rmw {
                        addr,
                        read: old,
                        write: new,
                    },
                );
                self.write_order.entry(addr).or_default().push(op_ref);
                self.event_log.push((
                    ProcId(cpu as u16),
                    Op::Rmw {
                        addr,
                        read: old,
                        write: new,
                    },
                ));
            }
            Instr::Fence => {} // SC machine: nothing buffered
        }
    }

    fn load(&mut self, cpu: usize, addr: Addr) -> Value {
        if let Some(line) = self.caches[cpu].lookup(addr) {
            self.stats.hits += 1;
            return line.value;
        }
        // GetS to the directory.
        self.stats.misses += 1;
        let state = self.dir(addr).clone();
        if let DirState::Owned(owner) = state {
            // Fetch: owner writes back and downgrades to Shared — unless a
            // stale-fill fault swallows the writeback.
            let stale = self.faults.stale_fill(self.stats.steps, cpu);
            if let Some(line) = self.caches[owner].lookup(addr) {
                if !stale {
                    self.memory.insert(addr, line.value);
                    self.stats.writebacks += 1;
                }
                let line = self.caches[owner].lookup_mut(addr).expect("owner");
                line.state = MesiState::Shared;
            }
            *self.dir(addr) = DirState::Shared(vec![owner, cpu]);
        } else {
            let mut sharers = match state {
                DirState::Shared(s) => s,
                _ => Vec::new(),
            };
            if !sharers.contains(&cpu) {
                sharers.push(cpu);
            }
            *self.dir(addr) = DirState::Shared(sharers);
        }
        let mut value = self.memory.get(&addr).copied().unwrap_or(Value::INITIAL);
        if let Some(mask) = self.faults.corrupt_fill(self.stats.steps, cpu) {
            value = Value(value.0 ^ mask.0);
        }
        self.fill(cpu, addr, value, MesiState::Shared);
        value
    }

    /// Obtain exclusive ownership; returns the pre-write value.
    fn get_exclusive(&mut self, cpu: usize, addr: Addr) -> Value {
        if let Some(line) = self.caches[cpu].lookup(addr) {
            if line.state.is_dirty() {
                self.stats.hits += 1;
                return line.value;
            }
        }
        // GetM to the directory.
        self.stats.misses += 1;
        let state = self.dir(addr).clone();
        match state {
            DirState::Owned(owner) if owner != cpu => {
                let stale = self.faults.stale_fill(self.stats.steps, cpu);
                if let Some(line) = self.caches[owner].lookup(addr) {
                    if !stale {
                        self.memory.insert(addr, line.value);
                        self.stats.writebacks += 1;
                    }
                }
                self.invalidate_at(owner, addr);
            }
            DirState::Shared(sharers) => {
                for s in sharers {
                    if s != cpu {
                        self.invalidate_at(s, addr);
                    }
                }
            }
            _ => {}
        }
        *self.dir(addr) = DirState::Owned(cpu);
        let value = match self.caches[cpu].lookup(addr) {
            Some(line) => line.value, // was Shared locally: upgrade
            None => {
                let mut v = self.memory.get(&addr).copied().unwrap_or(Value::INITIAL);
                if let Some(mask) = self.faults.corrupt_fill(self.stats.steps, cpu) {
                    v = Value(v.0 ^ mask.0);
                }
                self.fill(cpu, addr, v, MesiState::Modified);
                v
            }
        };
        let line = self.caches[cpu]
            .lookup_mut(addr)
            .expect("filled or upgraded");
        line.state = MesiState::Modified;
        value
    }

    fn store(&mut self, cpu: usize, addr: Addr, value: Value, op_ref: OpRef) {
        let _ = self.get_exclusive(cpu, addr);
        let lost = self.faults.lose_write(self.stats.steps, cpu);
        let line = self.caches[cpu].lookup_mut(addr).expect("exclusive");
        if !lost {
            line.value = value;
        }
        line.state = MesiState::Modified;
        self.write_order.entry(addr).or_default().push(op_ref);
    }

    fn invalidate_at(&mut self, cpu: usize, addr: Addr) {
        if self.faults.drop_invalidation(self.stats.steps, cpu) {
            return; // the fault: sharer keeps a stale copy
        }
        if let Some(line) = self.caches[cpu].lookup_mut(addr) {
            line.state = MesiState::Invalid;
            self.stats.invalidations += 1;
        }
    }

    fn fill(&mut self, cpu: usize, addr: Addr, value: Value, state: MesiState) {
        if let Some(victim) = self.caches[cpu].fill(addr, value, state) {
            if victim.state.is_dirty() {
                // PutM: write back and clear the directory entry.
                self.memory.insert(victim.addr, victim.value);
                self.stats.writebacks += 1;
                *self.dir(victim.addr) = DirState::Uncached;
            } else {
                // Drop this CPU from the sharer set.
                let d = self.dir(victim.addr);
                if let DirState::Shared(sharers) = d {
                    sharers.retain(|&s| s != cpu);
                    if sharers.is_empty() {
                        *d = DirState::Uncached;
                    }
                }
            }
        }
    }

    /// Access the configuration.
    pub fn config(&self) -> &DirectoryConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{random_program, shared_counter, WorkloadConfig};

    #[test]
    fn single_cpu_round_trip() {
        let p = Program::from_streams(vec![vec![
            Instr::Write(Addr(0), Value(7)),
            Instr::Read(Addr(0)),
        ]]);
        let cap = DirectoryMachine::run(&p, DirectoryConfig::default());
        assert_eq!(
            cap.trace.histories()[0].ops()[1],
            Op::Read {
                addr: Addr(0),
                value: Value(7)
            }
        );
        assert_eq!(cap.final_memory.get(&Addr(0)), Some(&Value(7)));
    }

    #[test]
    fn runs_are_sequentially_consistent() {
        for seed in 0..10 {
            let p = random_program(&WorkloadConfig {
                cpus: 3,
                instrs_per_cpu: 20,
                addrs: 3,
                write_fraction: 0.4,
                rmw_fraction: 0.1,
                seed,
            });
            let cap = DirectoryMachine::run(
                &p,
                DirectoryConfig {
                    seed,
                    ..Default::default()
                },
            );
            let verdict = vermem_consistency::verify_axiom(
                &cap.trace,
                vermem_consistency::ModelId::Sc,
                &vermem_consistency::AxiomConfig::default(),
            )
            .verdict;
            assert!(
                verdict.is_consistent(),
                "directory machine must be SC (seed {seed})"
            );
        }
    }

    #[test]
    fn counter_increments_serialize() {
        let cap = DirectoryMachine::run(&shared_counter(4, 6), DirectoryConfig::default());
        assert_eq!(cap.final_memory.get(&Addr(0)), Some(&Value(24)));
        assert!(vermem_coherence::verify_execution(&cap.trace).is_coherent());
    }

    #[test]
    fn dropped_invalidation_detected_on_counter_workload() {
        let mut hits = 0;
        for seed in 0..30 {
            let cap = DirectoryMachine::run(
                &shared_counter(3, 8),
                DirectoryConfig {
                    seed,
                    faults: vec![FaultPlan {
                        kind: crate::fault::FaultKind::DropInvalidation { victim_cpu: 1 },
                        at_step: 6,
                    }],
                    ..Default::default()
                },
            );
            if !vermem_coherence::verify_execution(&cap.trace).is_coherent() {
                hits += 1;
            }
        }
        assert!(hits > 0, "directory invalidation drops never detected");
    }

    #[test]
    fn corrupt_fill_detected() {
        let mut hits = 0;
        for seed in 0..25 {
            let p = random_program(&WorkloadConfig {
                cpus: 3,
                instrs_per_cpu: 30,
                addrs: 2,
                write_fraction: 0.45,
                rmw_fraction: 0.0,
                seed,
            });
            let cap = DirectoryMachine::run(
                &p,
                DirectoryConfig {
                    seed,
                    faults: vec![FaultPlan {
                        kind: crate::fault::FaultKind::CorruptFill {
                            cpu: 1,
                            xor: 0xDEAD,
                        },
                        at_step: 8,
                    }],
                    ..Default::default()
                },
            );
            if !vermem_coherence::verify_execution(&cap.trace).is_coherent() {
                hits += 1;
            }
        }
        assert!(hits >= 8, "corrupt fill detection too low: {hits}/25");
    }

    #[test]
    fn agrees_with_snooping_machine_on_final_state() {
        // Same program, same seed policy: both machines end with the same
        // final memory for a deterministic single-CPU program.
        let p = Program::from_streams(vec![vec![
            Instr::Write(Addr(0), Value(1)),
            Instr::Write(Addr(1), Value(2)),
            Instr::Rmw(Addr(0), RmwKind::Increment),
        ]]);
        let dir = DirectoryMachine::run(&p, DirectoryConfig::default());
        let snoop = crate::machine::Machine::run(&p, crate::machine::MachineConfig::default());
        assert_eq!(dir.final_memory, snoop.final_memory);
    }

    #[test]
    fn write_order_capture_works() {
        let p = random_program(&WorkloadConfig {
            cpus: 3,
            instrs_per_cpu: 20,
            addrs: 2,
            write_fraction: 0.5,
            rmw_fraction: 0.1,
            seed: 4,
        });
        let cap = DirectoryMachine::run(&p, DirectoryConfig::default());
        let index = vermem_trace::AddrIndex::build(&cap.trace);
        for (addr, order) in &cap.write_order {
            let ops = index.get(*addr).expect("a written address is indexed");
            assert!(
                vermem_coherence::solve_with_write_order(ops, order).is_coherent(),
                "directory write order must verify at {addr:?}"
            );
        }
    }
}
