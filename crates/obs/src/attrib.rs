//! Critical-path attribution over the stage tree (`mx-obs-attrib/1`).
//!
//! The span layer keeps three totals per stage (enters, sim seconds,
//! host nanoseconds) against a *static* parent tree. This module turns
//! those totals into the numbers an operator actually asks for:
//!
//! - **exclusive vs inclusive time** per stage. Sim charges are
//!   *leaf-attributed* — a stage's `sim_secs` is its own cost, so
//!   `sim_exclusive = sim_secs` and inclusive is the subtree sum.
//!   Host guards *bracket* their children on the same thread, so
//!   `host_inclusive = host_nanos` and exclusive subtracts the
//!   children (clamped at zero: parallel children can overlap the
//!   parent bracket and legitimately sum past it).
//! - **serial fraction**: the share of exclusive time spent in stages
//!   that are *not* fanned out by `par_map`
//!   ([`crate::names::PARALLEL_STAGES`]) — the Amdahl ceiling on any
//!   thread-scaling win.
//! - **critical path**: the greedy max-inclusive descent from the
//!   heaviest root, naming where the time concentrates.
//!
//! Everything derived from sim totals is deterministic and appears in
//! [`Attribution::deterministic_json`]; host-derived numbers are
//! per-run and only appear in [`Attribution::human_table`] and the
//! host-valued [`Attribution::folded_stacks`]. Tree walks are
//! depth-bounded by [`MAX_TREE_DEPTH`] — no unbounded recursion on
//! registry contents.

use crate::json::Value;
use crate::names;
use crate::span::{self, StageSnapshot};

/// The attribution exporter schema identifier.
pub const ATTRIB_SCHEMA: &str = "mx-obs-attrib/1";

/// Maximum stage-tree depth honoured by parent-chain walks; deeper
/// (or cyclic) chains are treated as rooted at the bound.
pub const MAX_TREE_DEPTH: usize = 16;

/// One stage's attributed totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttribRow {
    /// Stage name.
    pub stage: &'static str,
    /// Effective parent: the registered parent if it exists in the
    /// snapshot, otherwise `None` (the stage renders as a root).
    pub parent: Option<&'static str>,
    /// Depth below its root (0 for roots), bounded by
    /// [`MAX_TREE_DEPTH`].
    pub depth: usize,
    /// Times entered.
    pub enters: u64,
    /// Own simulated seconds (sim charges are leaf-attributed).
    pub sim_exclusive: u64,
    /// Subtree simulated seconds.
    pub sim_inclusive: u64,
    /// Host nanoseconds net of children, clamped at zero (per-run).
    pub host_exclusive_ns: u64,
    /// Own host nanoseconds — guards bracket children (per-run).
    pub host_inclusive_ns: u64,
    /// Is this stage fanned out by `par_map`? Serial-fraction
    /// accounting excludes parallel stages' exclusive time.
    pub parallel: bool,
}

/// The full attribution: per-stage rows plus the derived aggregates.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Per-stage rows, sorted by stage name.
    pub rows: Vec<AttribRow>,
    /// Total exclusive sim seconds (= the span layer's sim total).
    pub total_sim: u64,
    /// Total exclusive host nanoseconds (per-run).
    pub total_host_ns: u64,
    /// Exclusive sim seconds in non-parallel stages.
    pub serial_sim: u64,
    /// Exclusive host nanoseconds in non-parallel stages (per-run).
    pub serial_host_ns: u64,
    /// Greedy max-inclusive sim descent: (stage, sim_inclusive).
    pub critical_path_sim: Vec<(&'static str, u64)>,
    /// Greedy max-inclusive host descent (per-run).
    pub critical_path_host: Vec<(&'static str, u64)>,
}

/// Find `name` in the name-sorted row slice.
fn find(rows: &[AttribRow], name: &str) -> Option<usize> {
    rows.binary_search_by(|r| r.stage.cmp(name)).ok()
}

impl Attribution {
    /// Attribute the current span snapshot.
    pub fn capture() -> Attribution {
        Attribution::from_stages(&span::snapshot())
    }

    /// Attribute an explicit stage snapshot (for tests and offline
    /// analysis of exported data).
    pub fn from_stages(stages: &[StageSnapshot]) -> Attribution {
        let mut rows: Vec<AttribRow> = stages
            .iter()
            .map(|s| AttribRow {
                stage: s.name,
                parent: s.parent,
                depth: 0,
                enters: s.enters,
                sim_exclusive: s.sim_secs,
                sim_inclusive: s.sim_secs,
                host_exclusive_ns: s.host_nanos,
                host_inclusive_ns: s.host_nanos,
                parallel: names::PARALLEL_STAGES.contains(&s.name),
            })
            .collect();
        rows.sort_by(|a, b| a.stage.cmp(b.stage));

        // Resolve parents: a parent absent from the snapshot roots the
        // stage. Then fix depths by walking the (acyclic-by-bound)
        // parent chain.
        let stage_names: Vec<&'static str> = rows.iter().map(|r| r.stage).collect();
        let present = |name: &str| stage_names.binary_search_by(|s| (*s).cmp(name)).is_ok();
        for r in rows.iter_mut() {
            r.parent = r.parent.filter(|p| present(p));
        }
        let parents: Vec<Option<&'static str>> = rows.iter().map(|r| r.parent).collect();
        let parent_of = |name: &str| -> Option<&'static str> {
            stage_names
                .binary_search_by(|s| (*s).cmp(name))
                .ok()
                .and_then(|j| parents.get(j).copied().flatten())
        };
        for r in rows.iter_mut() {
            let mut depth = 0usize;
            let mut at = r.parent;
            while let Some(p) = at {
                if depth >= MAX_TREE_DEPTH {
                    break;
                }
                depth += 1;
                at = parent_of(p);
            }
            r.depth = depth;
        }

        // Deepest-first accumulation turns own totals into inclusive
        // subtree totals without recursion: every child is folded into
        // its parent exactly once.
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| match (rows.get(a), rows.get(b)) {
            (Some(ra), Some(rb)) => rb.depth.cmp(&ra.depth).then(ra.stage.cmp(rb.stage)),
            _ => core::cmp::Ordering::Equal,
        });
        for &i in &order {
            let Some(row) = rows.get(i) else { continue };
            let Some(parent) = row.parent else { continue };
            let (sim, host) = (row.sim_inclusive, row.host_inclusive_ns);
            let j = find(&rows, parent);
            if let Some(pr) = j.and_then(|j| rows.get_mut(j)) {
                pr.sim_inclusive = pr.sim_inclusive.saturating_add(sim);
                pr.host_exclusive_ns = pr.host_exclusive_ns.saturating_sub(host);
            }
        }
        // host_inclusive started as the guard total, which already
        // brackets children; only exclusive needed the subtraction.
        // sim_inclusive accumulated bottom-up above; sim_exclusive is
        // untouched (leaf-attributed charges).

        let mut total_sim = 0u64;
        let mut total_host = 0u64;
        let mut serial_sim = 0u64;
        let mut serial_host = 0u64;
        for r in &rows {
            total_sim = total_sim.saturating_add(r.sim_exclusive);
            total_host = total_host.saturating_add(r.host_exclusive_ns);
            if !r.parallel {
                serial_sim = serial_sim.saturating_add(r.sim_exclusive);
                serial_host = serial_host.saturating_add(r.host_exclusive_ns);
            }
        }

        let critical_path_sim = critical_path(&rows, |r| r.sim_inclusive);
        let critical_path_host = critical_path(&rows, |r| r.host_inclusive_ns);

        Attribution {
            rows,
            total_sim,
            total_host_ns: total_host,
            serial_sim,
            serial_host_ns: serial_host,
            critical_path_sim,
            critical_path_host,
        }
    }

    /// Share of exclusive sim time in non-parallel stages (0 when no
    /// sim time was charged). Deterministic.
    pub fn serial_fraction_sim(&self) -> f64 {
        if self.total_sim == 0 {
            return 0.0;
        }
        self.serial_sim as f64 / self.total_sim as f64
    }

    /// Share of exclusive host time in non-parallel stages (per-run).
    pub fn serial_fraction_host(&self) -> f64 {
        if self.total_host_ns == 0 {
            return 0.0;
        }
        self.serial_host_ns as f64 / self.total_host_ns as f64
    }

    /// Amdahl ceiling implied by the sim serial fraction: `1/s`, or
    /// `None` when no time is serial (unbounded).
    pub fn amdahl_max_speedup(&self) -> Option<f64> {
        let s = self.serial_fraction_sim();
        if s > 0.0 {
            Some(1.0 / s)
        } else {
            None
        }
    }

    fn rows_json(&self) -> Value {
        let mut arr = Value::arr();
        for r in &self.rows {
            let mut o = Value::obj();
            o.insert("stage", r.stage.into());
            match r.parent {
                Some(p) => o.insert("parent", p.into()),
                None => o.insert("parent", Value::Null),
            }
            o.insert("depth", r.depth.into());
            o.insert("enters", r.enters.into());
            o.insert("sim_exclusive", r.sim_exclusive.into());
            o.insert("sim_inclusive", r.sim_inclusive.into());
            o.insert("parallel", r.parallel.into());
            arr.push(o);
        }
        arr
    }

    fn path_json(path: &[(&'static str, u64)]) -> Value {
        let mut arr = Value::arr();
        for (stage, v) in path {
            let mut o = Value::obj();
            o.insert("stage", (*stage).into());
            o.insert("inclusive", (*v).into());
            arr.push(o);
        }
        arr
    }

    /// The deterministic export: sim-derived numbers only. Byte-
    /// identical across thread counts and reruns for the same input.
    pub fn deterministic_json(&self) -> String {
        let mut root = Value::obj();
        root.insert("schema", ATTRIB_SCHEMA.into());
        root.insert("deterministic", true.into());
        root.insert("total_sim_secs", self.total_sim.into());
        root.insert("serial_sim_secs", self.serial_sim.into());
        root.insert("serial_fraction_sim", self.serial_fraction_sim().into());
        match self.amdahl_max_speedup() {
            Some(v) => root.insert("amdahl_max_speedup", v.into()),
            None => root.insert("amdahl_max_speedup", Value::Null),
        }
        root.insert("critical_path_sim", Self::path_json(&self.critical_path_sim));
        root.insert("stages", self.rows_json());
        root.to_string_pretty()
    }

    /// A terminal table naming the top serial bottlenecks: stages
    /// sorted by exclusive host time (falling back to sim when no host
    /// time was recorded), serial stages marked.
    pub fn human_table(&self) -> String {
        let by_host = self.total_host_ns > 0;
        let key = |r: &AttribRow| {
            if by_host {
                r.host_exclusive_ns
            } else {
                r.sim_exclusive
            }
        };
        let mut idx: Vec<&AttribRow> = self.rows.iter().collect();
        idx.sort_by(|ra, rb| key(rb).cmp(&key(ra)).then(ra.stage.cmp(rb.stage)));
        let mut out = String::new();
        out.push_str(&format!(
            "attribution: serial fraction {:.1}% (sim){}{}\n",
            self.serial_fraction_sim() * 100.0,
            if by_host {
                format!(", {:.1}% (host)", self.serial_fraction_host() * 100.0)
            } else {
                String::new()
            },
            match self.amdahl_max_speedup() {
                Some(v) => format!(" — Amdahl ceiling {v:.1}x"),
                None => String::new(),
            },
        ));
        out.push_str(&format!(
            "{:<22} {:>8} {:>10} {:>10} {:>12} {:>12}  {}\n",
            "stage", "enters", "sim excl", "sim incl", "host excl ms", "host incl ms", "mode"
        ));
        for &r in &idx {
            if r.enters == 0 && r.sim_exclusive == 0 && r.host_exclusive_ns == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<22} {:>8} {:>10} {:>10} {:>12.2} {:>12.2}  {}\n",
                r.stage,
                r.enters,
                r.sim_exclusive,
                r.sim_inclusive,
                r.host_exclusive_ns as f64 / 1e6,
                r.host_inclusive_ns as f64 / 1e6,
                if r.parallel { "parallel" } else { "serial" },
            ));
        }
        let path = if by_host {
            &self.critical_path_host
        } else {
            &self.critical_path_sim
        };
        if !path.is_empty() {
            let names: Vec<&str> = path.iter().map(|(s, _)| *s).collect();
            out.push_str(&format!("critical path: {}\n", names.join(" -> ")));
        }
        out
    }

    /// Folded-stacks text for flamegraph tooling: one
    /// `root;child;leaf value` line per stage with nonzero exclusive
    /// time, sorted. `host` selects host-µs values (per-run) over
    /// deterministic sim seconds.
    pub fn folded_stacks(&self, host: bool) -> String {
        let mut lines: Vec<String> = Vec::new();
        for r in &self.rows {
            let value = if host {
                r.host_exclusive_ns / 1_000
            } else {
                r.sim_exclusive
            };
            if value == 0 {
                continue;
            }
            // Build root→leaf chain by walking parents, depth-bounded.
            let mut chain = vec![r.stage];
            let mut at = r.parent;
            let mut hops = 0usize;
            while let Some(p) = at {
                if hops >= MAX_TREE_DEPTH {
                    break;
                }
                chain.push(p);
                hops += 1;
                at = find(&self.rows, p)
                    .and_then(|j| self.rows.get(j))
                    .and_then(|row| row.parent);
            }
            chain.reverse();
            lines.push(format!("{} {value}", chain.join(";")));
        }
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }
}

/// Greedy max-`metric` descent from the heaviest root; ties break to
/// the lexicographically smaller stage name. Stops at a leaf, at a
/// zero-valued frontier, or at [`MAX_TREE_DEPTH`].
fn critical_path<F: Fn(&AttribRow) -> u64>(
    rows: &[AttribRow],
    metric: F,
) -> Vec<(&'static str, u64)> {
    let mut best: Option<&AttribRow> = None;
    for r in rows {
        if r.parent.is_some() || metric(r) == 0 {
            continue;
        }
        let better = match best {
            None => true,
            Some(b) => {
                let (vi, vb) = (metric(r), metric(b));
                vi > vb || (vi == vb && r.stage < b.stage)
            }
        };
        if better {
            best = Some(r);
        }
    }
    let mut path = Vec::new();
    let mut at = best;
    while let Some(row) = at {
        if path.len() >= MAX_TREE_DEPTH {
            break;
        }
        path.push((row.stage, metric(row)));
        let here = row.stage;
        let mut next: Option<&AttribRow> = None;
        for r in rows {
            if r.parent != Some(here) || metric(r) == 0 {
                continue;
            }
            let better = match next {
                None => true,
                Some(k) => {
                    let (vj, vk) = (metric(r), metric(k));
                    vj > vk || (vj == vk && r.stage < k.stage)
                }
            };
            if better {
                next = Some(r);
            }
        }
        at = next;
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(
        name: &'static str,
        parent: Option<&'static str>,
        enters: u64,
        sim: u64,
        host: u64,
    ) -> StageSnapshot {
        StageSnapshot {
            name,
            parent,
            enters,
            sim_secs: sim,
            host_nanos: host,
        }
    }

    #[test]
    fn inclusive_exclusive_and_serial_fraction() {
        let stages = vec![
            stage("root", None, 1, 10, 100),
            stage("root.par", Some("root"), 4, 40, 60),
            stage("root.ser", Some("root"), 2, 50, 30),
        ];
        // Pretend root.par is a parallel stage by checking against the
        // real table: none of these names are in PARALLEL_STAGES, so
        // everything is serial here.
        let a = Attribution::from_stages(&stages);
        let root = &a.rows[find(&a.rows, "root").expect("root row")];
        assert_eq!(root.sim_exclusive, 10);
        assert_eq!(root.sim_inclusive, 100);
        assert_eq!(root.host_inclusive_ns, 100);
        assert_eq!(root.host_exclusive_ns, 10, "100 - (60 + 30)");
        assert_eq!(a.total_sim, 100);
        assert_eq!(a.serial_sim, 100);
        assert!((a.serial_fraction_sim() - 1.0).abs() < 1e-12);
        assert_eq!(
            a.critical_path_sim,
            vec![("root", 100), ("root.ser", 50)],
            "greedy descent follows the heavier child"
        );
    }

    #[test]
    fn parallel_stages_leave_the_serial_pool() {
        let stages = vec![
            stage("observe", None, 1, 10, 0),
            stage(crate::names::STAGE_DNS_LOOKUP, Some("observe"), 8, 90, 0),
        ];
        let a = Attribution::from_stages(&stages);
        assert_eq!(a.total_sim, 100);
        assert_eq!(a.serial_sim, 10, "dns.lookup is par_map-fanned");
        assert!((a.serial_fraction_sim() - 0.1).abs() < 1e-12);
        let Some(ceiling) = a.amdahl_max_speedup() else {
            panic!("serial fraction positive, ceiling must exist");
        };
        assert!((ceiling - 10.0).abs() < 1e-9);
    }

    #[test]
    fn host_overlap_clamps_exclusive_at_zero() {
        // Parallel children can sum past the parent bracket.
        let stages = vec![
            stage("p", None, 1, 0, 50),
            stage("p.a", Some("p"), 1, 0, 40),
            stage("p.b", Some("p"), 1, 0, 40),
        ];
        let a = Attribution::from_stages(&stages);
        let p = &a.rows[find(&a.rows, "p").expect("p row")];
        assert_eq!(p.host_exclusive_ns, 0, "clamped, not wrapped");
    }

    #[test]
    fn folded_stacks_chain_and_sort() {
        let stages = vec![
            stage("b", None, 1, 7, 0),
            stage("b.leaf", Some("b"), 1, 3, 0),
            stage("a", None, 1, 0, 0),
        ];
        let a = Attribution::from_stages(&stages);
        assert_eq!(a.folded_stacks(false), "b 7\nb;b.leaf 3\n");
        assert_eq!(a.folded_stacks(true), "", "no host time recorded");
    }

    #[test]
    fn missing_parent_roots_the_stage_and_json_validates() {
        let stages = vec![stage("orphan.child", Some("never.registered"), 1, 5, 0)];
        let a = Attribution::from_stages(&stages);
        assert_eq!(a.rows[0].parent, None);
        assert_eq!(a.rows[0].depth, 0);
        let det = a.deterministic_json();
        let doc = crate::json::parse(&det).expect("deterministic JSON parses");
        assert_eq!(
            doc.get("schema").and_then(crate::json::Value::as_str),
            Some(ATTRIB_SCHEMA)
        );
        assert!(!a.human_table().is_empty());
    }
}
