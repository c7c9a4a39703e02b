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
//!
//! The machine runs on the execution core of [`crate::machine`] with store
//! buffers off; this module holds only the directory's coherence actions.

use crate::cache::Line;
use crate::fault::FaultPlan;
use crate::machine::{self, CapturedExecution, Hierarchy, MachineConfig, Protocol};
use crate::mesi::MesiState;
use crate::program::Program;
use std::collections::BTreeMap;
use vermem_trace::{Addr, Value};

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
pub struct DirectoryMachine(());

impl DirectoryMachine {
    /// Execute `program` to completion under the directory protocol.
    pub fn run(program: &Program, cfg: DirectoryConfig) -> CapturedExecution {
        // Store buffers off: the directory machine is SC.
        let cfg = MachineConfig {
            cache_lines: cfg.cache_lines,
            store_buffers: false,
            seed: cfg.seed,
            faults: cfg.faults,
            ..MachineConfig::default()
        };
        machine::run(program, cfg, Directory::default())
    }
}

/// The directory: one entry per address a cache has requested. It grants
/// lines Shared or Modified, never Exclusive.
#[derive(Default)]
struct Directory {
    entries: BTreeMap<Addr, DirState>,
}

impl Directory {
    fn entry(&mut self, addr: Addr) -> &mut DirState {
        self.entries.entry(addr).or_insert(DirState::Uncached)
    }

    /// The owner writes its copy back for `cpu`'s fill — unless a
    /// stale-fill fault at `cpu` swallows the writeback.
    fn fetch_from_owner(hw: &mut Hierarchy, cpu: usize, owner: usize, addr: Addr) {
        let stale = hw.faults.stale_fill(hw.stats.steps, cpu);
        if let Some(value) = hw.caches[owner].lookup(addr).map(|l| l.value) {
            if !stale {
                hw.write_back(addr, value);
            }
        }
    }

    fn invalidate_at(hw: &mut Hierarchy, cpu: usize, addr: Addr) {
        if hw.faults.drop_invalidation(hw.stats.steps, cpu) {
            return; // the fault: sharer keeps a stale copy
        }
        if let Some(line) = hw.caches[cpu].lookup_mut(addr) {
            line.state = MesiState::Invalid;
            hw.stats.invalidations += 1;
        }
    }
}

impl Protocol for Directory {
    /// GetS: an owner writes back and downgrades to Shared, and the
    /// requester joins the sharers.
    fn read_miss(&mut self, hw: &mut Hierarchy, cpu: usize, addr: Addr) -> MesiState {
        let sharers = match self.entry(addr).clone() {
            DirState::Owned(owner) => {
                Directory::fetch_from_owner(hw, cpu, owner, addr);
                if let Some(line) = hw.caches[owner].lookup_mut(addr) {
                    line.state = MesiState::Shared;
                }
                vec![owner, cpu]
            }
            DirState::Shared(mut sharers) => {
                if !sharers.contains(&cpu) {
                    sharers.push(cpu);
                }
                sharers
            }
            DirState::Uncached => vec![cpu],
        };
        *self.entry(addr) = DirState::Shared(sharers);
        MesiState::Shared
    }

    /// GetM: a remote owner writes back and is invalidated, or every other
    /// sharer is; the requester becomes the owner.
    fn acquire(&mut self, hw: &mut Hierarchy, cpu: usize, addr: Addr) -> Value {
        hw.stats.misses += 1;
        match self.entry(addr).clone() {
            DirState::Owned(owner) if owner != cpu => {
                Directory::fetch_from_owner(hw, cpu, owner, addr);
                Directory::invalidate_at(hw, owner, addr);
            }
            DirState::Shared(sharers) => {
                for s in sharers {
                    if s != cpu {
                        Directory::invalidate_at(hw, s, addr);
                    }
                }
            }
            _ => {}
        }
        *self.entry(addr) = DirState::Owned(cpu);
        match hw.caches[cpu].lookup(addr) {
            Some(line) => line.value, // was Shared locally: upgrade
            None => {
                let value = hw.fetch(cpu, addr);
                hw.fill(self, cpu, addr, value, MesiState::Modified);
                value
            }
        }
    }

    /// PutM clears a dirty victim's entry; a clean victim leaves the
    /// sharer set.
    fn evicted(&mut self, cpu: usize, victim: &Line) {
        let d = self.entry(victim.addr);
        if victim.state.is_dirty() {
            *d = DirState::Uncached;
        } else if let DirState::Shared(sharers) = d {
            sharers.retain(|&s| s != cpu);
            if sharers.is_empty() {
                *d = DirState::Uncached;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Instr, RmwKind};
    use crate::workload::{random_program, shared_counter, WorkloadConfig};
    use vermem_trace::Op;

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
