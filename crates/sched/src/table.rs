//! Schedule tables: explicit `(instance, processor, start-cycle)` triples,
//! the form in which the paper draws its figures (a grid of cycles ×
//! processors), plus the validity checker every schedule in this repository
//! must pass.

use crate::machine::{Cycle, MachineConfig};
use crate::program::{Program, TimedProgram};
use kn_ddg::{Ddg, InstanceId};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One scheduled instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    pub inst: InstanceId,
    pub proc: usize,
    pub start: Cycle,
}

/// Why a schedule is invalid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// Two instances overlap on one processor.
    Overlap {
        proc: usize,
        a: InstanceId,
        b: InstanceId,
    },
    /// A dependence is violated: `dst` starts before its operand from `src`
    /// can be available under the machine's timing model.
    DependenceViolated {
        src: InstanceId,
        dst: InstanceId,
        ready: Cycle,
        actual: Cycle,
    },
    /// An instance appears twice.
    Duplicate(InstanceId),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Overlap { proc, a, b } => {
                write!(f, "instances {a} and {b} overlap on PE{proc}")
            }
            ScheduleError::DependenceViolated {
                src,
                dst,
                ready,
                actual,
            } => write!(
                f,
                "{dst} starts at {actual} but operand from {src} is ready at {ready}"
            ),
            ScheduleError::Duplicate(i) => write!(f, "instance {i} placed twice"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A set of placements with index structures for queries and validation.
#[derive(Clone, Debug, Default)]
pub struct ScheduleTable {
    placements: Vec<Placement>,
    by_inst: HashMap<InstanceId, usize>,
}

impl ScheduleTable {
    /// Build from a list of placements (in any order).
    pub fn new(placements: Vec<Placement>) -> Self {
        let mut by_inst = HashMap::with_capacity(placements.len());
        for (i, p) in placements.iter().enumerate() {
            by_inst.insert(p.inst, i);
        }
        Self {
            placements,
            by_inst,
        }
    }

    /// Build from a timed program.
    pub fn from_timed(t: &TimedProgram) -> Self {
        let placements = t
            .start
            .iter()
            .map(|(inst, (proc, start))| Placement { inst, proc, start })
            .collect();
        Self::new(placements)
    }

    /// All placements (unspecified order).
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Number of placements.
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Start cycle of an instance.
    pub fn start_of(&self, inst: InstanceId) -> Option<Cycle> {
        self.by_inst.get(&inst).map(|&i| self.placements[i].start)
    }

    /// Processor of an instance.
    pub fn proc_of(&self, inst: InstanceId) -> Option<usize> {
        self.by_inst.get(&inst).map(|&i| self.placements[i].proc)
    }

    /// Completion time (`max(start + latency)`).
    pub fn makespan(&self, g: &Ddg) -> Cycle {
        self.placements
            .iter()
            .map(|p| p.start + g.latency(p.inst.node) as Cycle)
            .max()
            .unwrap_or(0)
    }

    /// Highest processor index used, plus one.
    pub fn processors_used(&self) -> usize {
        self.placements
            .iter()
            .map(|p| p.proc + 1)
            .max()
            .unwrap_or(0)
    }

    /// Convert into a [`Program`]: per-processor sequences ordered by start
    /// cycle (stable on equal starts by instance for determinism).
    pub fn to_program(&self, iters: u32) -> Program {
        let nprocs = self.processors_used();
        let mut seqs = vec![Vec::new(); nprocs];
        let mut sorted = self.placements.clone();
        sorted.sort_by_key(|p| (p.proc, p.start, p.inst.iter, p.inst.node.0));
        for p in sorted {
            seqs[p.proc].push(p.inst);
        }
        Program { seqs, iters }
    }

    /// Validate the schedule against the machine model: instances must not
    /// overlap on a processor, no instance may be duplicated, and every
    /// dependence between two *placed* instances must respect local/remote
    /// operand-ready times. Dependences whose producer is not in the table
    /// are ignored (they belong to a different scheduling phase).
    pub fn validate(&self, g: &Ddg, m: &MachineConfig) -> Result<(), ScheduleError> {
        if self.by_inst.len() != self.placements.len() {
            // find the duplicate for a useful message
            let mut seen = HashMap::new();
            for p in &self.placements {
                if seen.insert(p.inst, ()).is_some() {
                    return Err(ScheduleError::Duplicate(p.inst));
                }
            }
        }
        // Overlap check per processor.
        let mut per_proc: HashMap<usize, Vec<&Placement>> = HashMap::new();
        for p in &self.placements {
            per_proc.entry(p.proc).or_default().push(p);
        }
        for (proc, mut ps) in per_proc {
            ps.sort_by_key(|p| p.start);
            for w in ps.windows(2) {
                let (a, b) = (w[0], w[1]);
                if a.start + g.latency(a.inst.node) as Cycle > b.start {
                    return Err(ScheduleError::Overlap {
                        proc,
                        a: a.inst,
                        b: b.inst,
                    });
                }
            }
        }
        // Dependence check.
        for p in &self.placements {
            for (_, e) in g.in_edges(p.inst.node) {
                if e.distance > p.inst.iter {
                    continue;
                }
                let pred = InstanceId {
                    node: e.src,
                    iter: p.inst.iter - e.distance,
                };
                let Some(&pi) = self.by_inst.get(&pred) else {
                    continue;
                };
                let pp = &self.placements[pi];
                let fin = m.finish(pp.start, g.latency(pred.node));
                let ready = if pp.proc == p.proc {
                    m.local_ready(fin)
                } else {
                    m.remote_ready(fin, m.edge_cost(e))
                };
                if p.start < ready {
                    return Err(ScheduleError::DependenceViolated {
                        src: pred,
                        dst: p.inst,
                        ready,
                        actual: p.start,
                    });
                }
            }
        }
        Ok(())
    }

    /// Render the schedule as the paper draws it: one row per cycle, one
    /// column per processor, node names subscripted with their iteration
    /// (`A1`, `D3`, …); multi-cycle nodes show `|` on continuation rows.
    pub fn render_grid(&self, g: &Ddg) -> String {
        if self.is_empty() {
            return String::from("(empty schedule)\n");
        }
        let nprocs = self.processors_used();
        let makespan = self.makespan(g);
        let mut grid: Vec<Vec<String>> = vec![vec![String::new(); nprocs]; makespan as usize];
        for p in &self.placements {
            let label = format!("{}{}", g.name(p.inst.node), p.inst.iter);
            let lat = g.latency(p.inst.node) as Cycle;
            grid[p.start as usize][p.proc] = label;
            for c in 1..lat {
                grid[(p.start + c) as usize][p.proc] = "|".to_string();
            }
        }
        let width = self
            .placements
            .iter()
            .map(|p| g.name(p.inst.node).len() + 4)
            .max()
            .unwrap_or(6)
            .max(6);
        let mut out = String::new();
        let _ = write!(out, "{:>6} ", "step");
        for p in 0..nprocs {
            let _ = write!(out, "{:>width$}", format!("PE{p}"), width = width);
        }
        let _ = writeln!(out);
        for (cycle, row) in grid.iter().enumerate() {
            let _ = write!(out, "{cycle:>6} ");
            for cell in row {
                let _ = write!(out, "{:>width$}", cell, width = width);
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kn_ddg::{DdgBuilder, NodeId};

    fn inst(node: u32, iter: u32) -> InstanceId {
        InstanceId {
            node: NodeId(node),
            iter,
        }
    }

    fn chain() -> Ddg {
        let mut b = DdgBuilder::new();
        let x = b.node_lat("x", 2);
        let y = b.node("y");
        b.dep(x, y);
        b.build().unwrap()
    }

    #[test]
    fn valid_schedule_passes() {
        let g = chain();
        let m = MachineConfig::new(2, 2);
        let t = ScheduleTable::new(vec![
            Placement {
                inst: inst(0, 0),
                proc: 0,
                start: 0,
            },
            Placement {
                inst: inst(1, 0),
                proc: 1,
                start: 3,
            }, // 2 + 2 - 1
        ]);
        t.validate(&g, &m).unwrap();
        assert_eq!(t.makespan(&g), 4);
        assert_eq!(t.processors_used(), 2);
    }

    #[test]
    fn detects_dependence_violation() {
        let g = chain();
        let m = MachineConfig::new(2, 2);
        let t = ScheduleTable::new(vec![
            Placement {
                inst: inst(0, 0),
                proc: 0,
                start: 0,
            },
            Placement {
                inst: inst(1, 0),
                proc: 1,
                start: 2,
            }, // needs 3
        ]);
        assert!(matches!(
            t.validate(&g, &m).unwrap_err(),
            ScheduleError::DependenceViolated {
                ready: 3,
                actual: 2,
                ..
            }
        ));
    }

    #[test]
    fn detects_overlap() {
        let g = chain();
        let m = MachineConfig::new(1, 1);
        let t = ScheduleTable::new(vec![
            Placement {
                inst: inst(0, 0),
                proc: 0,
                start: 0,
            }, // occupies [0,2)
            Placement {
                inst: inst(1, 0),
                proc: 0,
                start: 1,
            },
        ]);
        assert!(matches!(
            t.validate(&g, &m).unwrap_err(),
            ScheduleError::Overlap { .. }
        ));
    }

    #[test]
    fn detects_duplicate() {
        let g = chain();
        let m = MachineConfig::new(2, 1);
        let t = ScheduleTable::new(vec![
            Placement {
                inst: inst(0, 0),
                proc: 0,
                start: 0,
            },
            Placement {
                inst: inst(0, 0),
                proc: 1,
                start: 5,
            },
        ]);
        assert!(matches!(
            t.validate(&g, &m).unwrap_err(),
            ScheduleError::Duplicate(_)
        ));
    }

    #[test]
    fn local_dependence_at_finish_is_legal() {
        let g = chain();
        let m = MachineConfig::new(1, 5);
        let t = ScheduleTable::new(vec![
            Placement {
                inst: inst(0, 0),
                proc: 0,
                start: 0,
            },
            Placement {
                inst: inst(1, 0),
                proc: 0,
                start: 2,
            },
        ]);
        t.validate(&g, &m).unwrap();
    }

    #[test]
    fn to_program_orders_by_start() {
        let t = ScheduleTable::new(vec![
            Placement {
                inst: inst(1, 0),
                proc: 0,
                start: 5,
            },
            Placement {
                inst: inst(0, 0),
                proc: 0,
                start: 0,
            },
        ]);
        let prog = t.to_program(1);
        assert_eq!(prog.seqs[0], vec![inst(0, 0), inst(1, 0)]);
    }

    #[test]
    fn grid_render_shows_names_and_continuation() {
        let g = chain();
        let t = ScheduleTable::new(vec![
            Placement {
                inst: inst(0, 0),
                proc: 0,
                start: 0,
            },
            Placement {
                inst: inst(1, 0),
                proc: 0,
                start: 2,
            },
        ]);
        let grid = t.render_grid(&g);
        assert!(grid.contains("PE0"));
        assert!(grid.contains("x0"));
        assert!(grid.contains('|'), "latency-2 node continues: {grid}");
        assert!(grid.contains("y0"));
    }

    #[test]
    fn empty_table() {
        let t = ScheduleTable::new(vec![]);
        assert!(t.is_empty());
        assert_eq!(t.render_grid(&chain()), "(empty schedule)\n");
    }
}
