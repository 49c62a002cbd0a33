//! The traced pass's span recorder.
//!
//! Spans nest `run` → `cell` → `step` → `gc.*`. Fine spans (millions per
//! pass) are folded into (cell, name) → count / total / self as they close;
//! coarse spans (`run`, `cell`, `gc.alloc_collect`, `gc.collect`) are also
//! kept individually, with id and parent id, for the trace file. A span's
//! self time is its duration minus the time its children cover, so the self
//! times of a whole tree sum to the root's duration exactly.

use std::time::Instant;

/// The fixed vocabulary of spans the benchmark records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanName {
    /// One traced pass over every cell of a workload.
    Run,
    /// One call of `simulate::run` / `run_multi` / `run_fleet`.
    Cell,
    /// One `Program::step`.
    Step,
    /// A `GcHeap::alloc` during which no collection ran.
    AllocFast,
    /// A `GcHeap::alloc` during which `stats().total_gcs()` advanced.
    AllocCollect,
    /// A `GcHeap::collect` the program asked for.
    Collect,
    /// A `GcHeap::write_ref`.
    WriteRef,
    /// A `read_ref`, `read_data` or `write_data`.
    Read,
}

impl SpanName {
    /// Every name, in fold-table order.
    pub const ALL: [SpanName; 8] = [
        SpanName::Run,
        SpanName::Cell,
        SpanName::Step,
        SpanName::AllocFast,
        SpanName::AllocCollect,
        SpanName::Collect,
        SpanName::WriteRef,
        SpanName::Read,
    ];

    /// The name as the trace file prints it.
    pub fn label(self) -> &'static str {
        match self {
            SpanName::Run => "run",
            SpanName::Cell => "cell",
            SpanName::Step => "step",
            SpanName::AllocFast => "gc.alloc_fast",
            SpanName::AllocCollect => "gc.alloc_collect",
            SpanName::Collect => "gc.collect",
            SpanName::WriteRef => "gc.write_ref",
            SpanName::Read => "gc.read",
        }
    }

    /// Whether spans of this name are kept individually.
    fn coarse(self) -> bool {
        matches!(
            self,
            SpanName::Run | SpanName::Cell | SpanName::AllocCollect | SpanName::Collect
        )
    }
}

/// Count, total and self time of every closed span of one (cell, name).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fold {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations, in host nanoseconds.
    pub total_ns: u64,
    /// Sum of durations minus child-covered time, in host nanoseconds.
    pub self_ns: u64,
}

impl Fold {
    fn add(&mut self, dur_ns: u64, child_ns: u64) {
        self.count += 1;
        self.total_ns += dur_ns;
        self.self_ns += dur_ns.saturating_sub(child_ns);
    }
}

/// The folds of one cell (or of the spans outside any cell), indexed like
/// [`SpanName::ALL`].
pub type FoldRow = [Fold; SpanName::ALL.len()];

/// One individually kept span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoarseSpan {
    /// Identifier, unique within the recorder, from 1.
    pub id: u32,
    /// The enclosing coarse span's id; 0 for a root.
    pub parent: u32,
    /// The span's name.
    pub name: SpanName,
    /// The cell it belongs to (`None` for `run`).
    pub cell: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

struct Open {
    name: SpanName,
    /// Nonzero for coarse spans.
    id: u32,
    start_ns: u64,
    child_ns: u64,
}

/// Coarse spans kept before further ones are only counted: bounds the
/// recorder's memory on a workload that collects millions of times.
const COARSE_CAP: usize = 500_000;

/// Records spans in memory; nothing is written until the benchmark ends.
pub struct Recorder {
    epoch: Instant,
    stack: Vec<Open>,
    cell: Option<usize>,
    cells: Vec<FoldRow>,
    outside: FoldRow,
    coarse: Vec<CoarseSpan>,
    coarse_dropped: u64,
    next_id: u32,
}

impl Recorder {
    /// A recorder for a workload of `cells` cells.
    pub fn new(cells: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            stack: Vec::new(),
            cell: None,
            cells: vec![FoldRow::default(); cells],
            outside: FoldRow::default(),
            coarse: Vec::new(),
            coarse_dropped: 0,
            next_id: 1,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn row(&mut self) -> &mut FoldRow {
        match self.cell {
            Some(c) => &mut self.cells[c],
            None => &mut self.outside,
        }
    }

    fn parent_id(&self) -> u32 {
        self.stack
            .iter()
            .rev()
            .map(|o| o.id)
            .find(|&id| id != 0)
            .unwrap_or(0)
    }

    /// Opens a span now.
    pub fn open(&mut self, name: SpanName) {
        self.open_at(name, Instant::now());
    }

    /// Opens a span that started at `start`.
    pub fn open_at(&mut self, name: SpanName, start: Instant) {
        let id = if name.coarse() {
            self.next_id += 1;
            self.next_id - 1
        } else {
            0
        };
        let start_ns = self.ns(start);
        self.stack.push(Open {
            name,
            id,
            start_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span now.
    pub fn close(&mut self) {
        self.close_at(Instant::now());
    }

    /// Closes the innermost open span at `end`.
    pub fn close_at(&mut self, end: Instant) {
        let end_ns = self.ns(end);
        let open = self.stack.pop().expect("close without an open span");
        let dur = end_ns.saturating_sub(open.start_ns);
        self.row()[open.name as usize].add(dur, open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if open.id != 0 {
            let span = CoarseSpan {
                id: open.id,
                parent: self.parent_id(),
                name: open.name,
                cell: self.cell,
                start_ns: open.start_ns,
                end_ns,
            };
            if self.coarse.len() < COARSE_CAP {
                self.coarse.push(span);
            } else {
                self.coarse_dropped += 1;
            }
        }
    }

    /// Records a childless span the caller timed itself: the hot path of
    /// the traced pass, two clock reads per `GcHeap` call.
    pub fn leaf(&mut self, name: SpanName, start: Instant, end: Instant) {
        if name.coarse() {
            self.open_at(name, start);
            self.close_at(end);
            return;
        }
        let dur = end.duration_since(start).as_nanos() as u64;
        self.row()[name as usize].add(dur, 0);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Opens the `cell` span of cell `index`; spans until [`end_cell`]
    /// fold under it.
    ///
    /// [`end_cell`]: Recorder::end_cell
    pub fn begin_cell(&mut self, index: usize) {
        self.cell = Some(index);
        self.open(SpanName::Cell);
    }

    /// Closes the current `cell` span — and any span a panicking cell
    /// left open inside it.
    pub fn end_cell(&mut self) {
        let end = Instant::now();
        while let Some(open) = self.stack.last() {
            let done = open.name == SpanName::Cell;
            self.close_at(end);
            if done {
                break;
            }
        }
        self.cell = None;
    }

    /// The folds of cell `index`.
    pub fn cell_folds(&self, index: usize) -> &FoldRow {
        &self.cells[index]
    }

    /// The fold of `name` summed over the cells `pick` selects.
    pub fn sum(&self, name: SpanName, pick: impl Fn(usize) -> bool) -> Fold {
        let mut out = Fold::default();
        for (i, row) in self.cells.iter().enumerate() {
            if pick(i) {
                let f = row[name as usize];
                out.count += f.count;
                out.total_ns += f.total_ns;
                out.self_ns += f.self_ns;
            }
        }
        out
    }

    /// Total duration of the `run` spans.
    pub fn root_ns(&self) -> u64 {
        self.outside[SpanName::Run as usize].total_ns
    }

    /// Sum of every span's self time; equals [`root_ns`] when every span
    /// closed inside a `run`.
    ///
    /// [`root_ns`]: Recorder::root_ns
    pub fn self_sum_ns(&self) -> u64 {
        self.cells
            .iter()
            .chain(std::iter::once(&self.outside))
            .flat_map(|row| row.iter())
            .map(|f| f.self_ns)
            .sum()
    }

    /// The individually kept spans, in closing order.
    pub fn coarse(&self) -> &[CoarseSpan] {
        &self.coarse
    }

    /// Coarse spans counted but not kept (over the memory cap).
    pub fn coarse_dropped(&self) -> u64 {
        self.coarse_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Builds instants at fixed offsets from the recorder's epoch.
    fn at(rec: &Recorder, ns: u64) -> Instant {
        rec.epoch + Duration::from_nanos(ns)
    }

    #[test]
    fn nested_and_sibling_self_times_sum_to_the_root() {
        let mut rec = Recorder::new(2);
        rec.open_at(SpanName::Run, at(&rec, 0));
        for (cell, base) in [(0usize, 100u64), (1, 5_000)] {
            rec.cell = Some(cell);
            rec.open_at(SpanName::Cell, at(&rec, base));
            // Two sibling steps, the first with three leaves.
            rec.open_at(SpanName::Step, at(&rec, base + 10));
            let (a, b) = (at(&rec, base + 20), at(&rec, base + 50));
            rec.leaf(SpanName::AllocFast, a, b);
            let (a, b) = (at(&rec, base + 60), at(&rec, base + 460));
            rec.leaf(SpanName::AllocCollect, a, b);
            let (a, b) = (at(&rec, base + 500), at(&rec, base + 505));
            rec.leaf(SpanName::WriteRef, a, b);
            rec.close_at(at(&rec, base + 1_000));
            rec.open_at(SpanName::Step, at(&rec, base + 1_100));
            rec.close_at(at(&rec, base + 1_300));
            rec.close_at(at(&rec, base + 2_000));
            rec.cell = None;
        }
        rec.close_at(at(&rec, 10_000));

        assert_eq!(rec.root_ns(), 10_000);
        assert_eq!(rec.self_sum_ns(), rec.root_ns());
        let row = rec.cell_folds(0);
        let step = row[SpanName::Step as usize];
        assert_eq!((step.count, step.total_ns), (2, 990 + 200));
        assert_eq!(step.self_ns, 990 - (30 + 400 + 5) + 200);
        let cell = row[SpanName::Cell as usize];
        assert_eq!((cell.total_ns, cell.self_ns), (2_000, 2_000 - 1_190));
        // run's self = 10_000 minus the two cells.
        assert_eq!(rec.outside[SpanName::Run as usize].self_ns, 10_000 - 4_000);
        assert_eq!(rec.sum(SpanName::AllocFast, |_| true).count, 2);
        assert_eq!(rec.sum(SpanName::AllocFast, |c| c == 1).total_ns, 30);
    }

    #[test]
    fn coarse_spans_carry_ids_and_parents() {
        let mut rec = Recorder::new(1);
        rec.open_at(SpanName::Run, at(&rec, 0));
        rec.cell = Some(0);
        rec.open_at(SpanName::Cell, at(&rec, 10));
        rec.open_at(SpanName::Step, at(&rec, 20));
        let (a, b) = (at(&rec, 30), at(&rec, 40));
        rec.leaf(SpanName::Collect, a, b);
        rec.close_at(at(&rec, 50));
        rec.close_at(at(&rec, 60));
        rec.cell = None;
        rec.close_at(at(&rec, 70));
        let spans = rec.coarse();
        assert_eq!(spans.len(), 3);
        let (collect, cell, run) = (spans[0], spans[1], spans[2]);
        assert_eq!(collect.name, SpanName::Collect);
        assert_eq!((run.id, run.parent), (1, 0));
        assert_eq!((cell.id, cell.parent), (2, 1));
        // The fine `step` between them is skipped: the parent is the cell.
        assert_eq!((collect.id, collect.parent), (3, 2));
        assert_eq!((collect.start_ns, collect.end_ns), (30, 40));
        assert_eq!(collect.cell, Some(0));
        assert_eq!(run.cell, None);
    }

    #[test]
    fn end_cell_closes_what_a_panicking_cell_left_open() {
        let mut rec = Recorder::new(1);
        rec.open(SpanName::Run);
        rec.begin_cell(0);
        rec.open(SpanName::Step);
        rec.end_cell();
        rec.close();
        assert!(rec.stack.is_empty());
        assert_eq!(rec.self_sum_ns(), rec.root_ns());
        assert_eq!(rec.cell_folds(0)[SpanName::Step as usize].count, 1);
    }
}
