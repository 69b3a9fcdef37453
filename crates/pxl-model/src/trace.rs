//! Task graphs: the dynamic task graph a worker unfolds, for inspection.
//!
//! The paper's Fig. 2 illustrates the graphs that continuation passing
//! builds at run time — the regular tree of a data-parallel vector add, the
//! unbalanced fork-join tree of Fibonacci, the wavefront lattice of dynamic
//! programming. [`crate::SerialExecutor`] records every node (executed task
//! or pending successor) and every edge (spawn, successor creation, argument
//! return) of its runs in a [`TaskGraph`], which can be checked structurally
//! or rendered to Graphviz DOT.
//!
//! # Examples
//!
//! ```
//! use pxl_model::trace::EdgeKind;
//! use pxl_model::{Continuation, SerialExecutor, Task, TaskContext, TaskTypeId, Worker};
//!
//! const FIB: TaskTypeId = TaskTypeId(0);
//! const SUM: TaskTypeId = TaskTypeId(1);
//! struct Fib;
//! impl Worker for Fib {
//!     fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
//!         let k = task.k;
//!         if task.ty == FIB {
//!             let n = task.args[0];
//!             if n < 2 {
//!                 ctx.send_arg(k, n);
//!             } else {
//!                 let kk = ctx.make_successor(SUM, k, 2);
//!                 ctx.spawn(Task::new(FIB, kk.with_slot(1), &[n - 2]));
//!                 ctx.spawn(Task::new(FIB, kk.with_slot(0), &[n - 1]));
//!             }
//!         } else {
//!             ctx.send_arg(k, task.args[0] + task.args[1]);
//!         }
//!     }
//! }
//!
//! let mut exec = SerialExecutor::new();
//! let result = exec
//!     .run(&mut Fib, Task::new(FIB, Continuation::host(0), &[4]))
//!     .unwrap();
//! assert_eq!(result, 3);
//! let graph = exec.graph();
//! // fib(4): 9 FIB tasks + 4 SUM successors (the paper's Fig. 2b).
//! assert_eq!(graph.node_count(), 13);
//! assert!(graph.is_acyclic());
//! assert_eq!(graph.edges_of_kind(EdgeKind::Successor).count(), 4);
//! ```

use crate::task::TaskTypeId;

/// Identifies one node of a recorded task graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// Why an edge exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Parent spawned child (the downward arrows of Fig. 1).
    Spawn,
    /// Task created a pending successor (the horizontal arrows of Fig. 1).
    Successor,
    /// Task returned a value to a continuation (the dotted arrows of
    /// Fig. 1).
    Arg,
}

/// One recorded node.
#[derive(Debug, Clone)]
pub struct Node {
    /// The task type.
    pub ty: TaskTypeId,
    /// Whether the node was created as a pending successor (join) rather
    /// than a spawned/root task.
    pub pending: bool,
    /// First argument word at execution time (a convenient label, e.g.
    /// `n` for Fibonacci).
    pub label_arg: u64,
}

/// The dynamic task graph one execution unfolded.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    nodes: Vec<Node>,
    edges: Vec<(NodeId, NodeId, EdgeKind)>,
}

impl TaskGraph {
    /// Number of recorded nodes (tasks + successors).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of recorded edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The node table.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All edges `(from, to, kind)`.
    pub fn edges(&self) -> &[(NodeId, NodeId, EdgeKind)] {
        &self.edges
    }

    /// Iterates the edges of one kind.
    pub fn edges_of_kind(&self, kind: EdgeKind) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.edges
            .iter()
            .filter(move |(_, _, k)| *k == kind)
            .map(|&(a, b, _)| (a, b))
    }

    /// Whether the graph (all edge kinds) is a DAG — continuation passing
    /// can only reference already-created tasks, so a cycle indicates a
    /// protocol violation.
    pub fn is_acyclic(&self) -> bool {
        self.depths().is_some()
    }

    /// Length (in nodes) of the longest dependence chain through the graph
    /// — the paper's *critical path*, which bounds achievable speedup.
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic.
    pub fn critical_path_len(&self) -> usize {
        let depths = self.depths().expect("critical path of a cyclic graph");
        depths.into_iter().max().unwrap_or(0)
    }

    /// Each node's depth (nodes on the longest chain ending at it), from
    /// one topological pass (Kahn's algorithm); `None` when a cycle leaves
    /// nodes unvisited.
    fn depths(&self) -> Option<Vec<usize>> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b, _) in &self.edges {
            out[a.0].push(b.0);
            indeg[b.0] += 1;
        }
        let mut depth = vec![1usize; n];
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(v) = queue.pop() {
            seen += 1;
            for &w in &out[v] {
                depth[w] = depth[w].max(depth[v] + 1);
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    queue.push(w);
                }
            }
        }
        (seen == n).then_some(depth)
    }

    /// Renders the graph as Graphviz DOT. `name_of` labels task types
    /// (e.g. `|t| if t == FIB { "fib" } else { "sum" }`).
    pub fn to_dot(&self, name_of: &dyn Fn(TaskTypeId) -> String) -> String {
        let mut s = String::from("digraph tasks {\n  rankdir=TB;\n");
        for (i, node) in self.nodes.iter().enumerate() {
            let shape = if node.pending { "ellipse" } else { "box" };
            s.push_str(&format!(
                "  n{} [label=\"{}({})\", shape={}];\n",
                i,
                name_of(node.ty),
                node.label_arg,
                shape
            ));
        }
        for &(a, b, kind) in &self.edges {
            let style = match kind {
                EdgeKind::Spawn => "solid",
                EdgeKind::Successor => "bold",
                EdgeKind::Arg => "dashed",
            };
            s.push_str(&format!("  n{} -> n{} [style={}];\n", a.0, b.0, style));
        }
        s.push_str("}\n");
        s
    }

    pub(crate) fn add_node(&mut self, ty: TaskTypeId, pending: bool, label_arg: u64) -> NodeId {
        self.nodes.push(Node {
            ty,
            pending,
            label_arg,
        });
        NodeId(self.nodes.len() - 1)
    }

    pub(crate) fn add_edge(&mut self, from: NodeId, to: NodeId, kind: EdgeKind) {
        self.edges.push((from, to, kind));
    }

    /// Relabels a successor with its first argument once its join completes.
    pub(crate) fn set_label(&mut self, node: NodeId, label_arg: u64) {
        self.nodes[node.0].label_arg = label_arg;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Continuation, SerialExecutor, Task, TaskContext, Worker};

    const FIB: TaskTypeId = TaskTypeId(0);
    const SUM: TaskTypeId = TaskTypeId(1);

    struct FibWorker;
    impl Worker for FibWorker {
        fn execute(&mut self, task: &Task, ctx: &mut dyn TaskContext) {
            let k = task.k;
            if task.ty == FIB {
                let n = task.args[0];
                if n < 2 {
                    ctx.send_arg(k, n);
                } else {
                    let kk = ctx.make_successor(SUM, k, 2);
                    ctx.spawn(Task::new(FIB, kk.with_slot(1), &[n - 2]));
                    ctx.spawn(Task::new(FIB, kk.with_slot(0), &[n - 1]));
                }
            } else {
                ctx.send_arg(k, task.args[0] + task.args[1]);
            }
        }
    }

    fn fib_graph(n: u64) -> (u64, TaskGraph) {
        let mut exec = SerialExecutor::new();
        let result = exec
            .run(&mut FibWorker, Task::new(FIB, Continuation::host(0), &[n]))
            .unwrap();
        (result, exec.graph().clone())
    }

    #[test]
    fn fib4_matches_paper_fig2b() {
        let (result, g) = fib_graph(4);
        assert_eq!(result, 3);
        // Fig. 2(b): nodes 4,3,2,2,1,1,1,0,0 (9 fib calls) + 4 S nodes.
        let fib_nodes = g.nodes().iter().filter(|n| n.ty == FIB).count();
        let sum_nodes = g.nodes().iter().filter(|n| n.ty == SUM).count();
        assert_eq!(fib_nodes, 9);
        assert_eq!(sum_nodes, 4);
        // Each internal fib contributes 2 spawn edges and 1 successor edge.
        assert_eq!(g.edges_of_kind(EdgeKind::Spawn).count(), 8);
        assert_eq!(g.edges_of_kind(EdgeKind::Successor).count(), 4);
        // P-Store argument edges: the 5 leaves (fib(1)/fib(0)) each send
        // one, and 3 of the 4 S nodes forward to a parent S (the root S
        // returns to the host, which is not a graph node).
        assert_eq!(g.edges_of_kind(EdgeKind::Arg).count(), 8);
    }

    #[test]
    fn graphs_are_acyclic_with_sane_critical_paths() {
        for n in [2u64, 5, 8, 10] {
            let (_, g) = fib_graph(n);
            assert!(g.is_acyclic(), "fib({n}) graph must be a DAG");
            let cp = g.critical_path_len();
            // The critical path grows with n but is far below the node count.
            assert!(cp >= n as usize, "fib({n}): cp {cp}");
            assert!(
                cp < g.node_count(),
                "fib({n}): cp {cp} nodes {}",
                g.node_count()
            );
        }
    }

    #[test]
    fn dot_output_is_wellformed() {
        let (_, g) = fib_graph(3);
        let dot = g.to_dot(&|t| if t == FIB { "fib".into() } else { "S".into() });
        assert!(dot.starts_with("digraph tasks {"));
        assert!(dot.ends_with("}\n"));
        assert!(
            dot.contains("shape=ellipse"),
            "successors drawn as ellipses"
        );
        assert!(
            dot.contains("style=dashed"),
            "arg edges dashed, as in Fig. 1"
        );
        assert_eq!(dot.matches(" -> ").count(), g.edge_count());
    }

    #[test]
    fn a_cycle_is_reported_and_has_no_critical_path() {
        let mut g = TaskGraph::default();
        assert_eq!(g.critical_path_len(), 0);
        let (a, b) = (g.add_node(FIB, false, 0), g.add_node(SUM, true, 0));
        g.add_edge(a, b, EdgeKind::Successor);
        assert!(g.is_acyclic());
        assert_eq!(g.critical_path_len(), 2);
        g.add_edge(b, a, EdgeKind::Arg);
        assert!(!g.is_acyclic());
        assert!(std::panic::catch_unwind(|| g.critical_path_len()).is_err());
    }
}
