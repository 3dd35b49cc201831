//! Core graph types and the canonical degree-order preprocessing.

use emsim::Record;

/// A vertex identifier. The paper assumes vertices are totally ordered by
/// degree; [`Graph::degree_ordered`] renumbers vertices so that the integer
/// order *is* that degree order, which keeps every later comparison a plain
/// integer comparison.
pub type VertexId = u32;

/// An undirected edge `{u, v}` stored canonically with `u < v`.
///
/// Matching the paper's accounting, an edge occupies exactly one machine word
/// when stored in simulated external memory (two packed 32-bit endpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// The smaller endpoint.
    pub u: VertexId,
    /// The larger endpoint.
    pub v: VertexId,
}

impl Edge {
    /// Creates the canonical edge for the unordered pair `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self loops are not allowed in a simple graph).
    pub fn new(a: VertexId, b: VertexId) -> Self {
        assert_ne!(a, b, "self loop {a}");
        if a < b {
            Self { u: a, v: b }
        } else {
            Self { u: b, v: a }
        }
    }

    /// Whether `x` is one of the endpoints.
    pub fn touches(&self, x: VertexId) -> bool {
        self.u == x || self.v == x
    }

    /// The endpoint different from `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint.
    pub fn other(&self, x: VertexId) -> VertexId {
        if self.u == x {
            self.v
        } else if self.v == x {
            self.u
        } else {
            panic!("vertex {x} is not an endpoint of {self:?}")
        }
    }
}

impl Record for Edge {
    const WORDS: usize = 1;

    fn encode(&self, out: &mut [u64]) {
        out[0] = ((self.u as u64) << 32) | self.v as u64;
    }

    fn decode(words: &[u64]) -> Self {
        Edge {
            u: (words[0] >> 32) as u32,
            v: (words[0] & 0xffff_ffff) as u32,
        }
    }
}

/// A triangle `{a, b, c}` stored with `a < b < c`.
///
/// In the paper's terminology `a` is the *cone vertex* and `{b, c}` the
/// *pivot edge*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triangle {
    /// Smallest vertex (the cone vertex).
    pub a: VertexId,
    /// Middle vertex.
    pub b: VertexId,
    /// Largest vertex.
    pub c: VertexId,
}

impl Triangle {
    /// Creates the canonical triangle for the vertex set `{x, y, z}`.
    ///
    /// # Panics
    ///
    /// Panics if two of the vertices coincide.
    pub fn new(x: VertexId, y: VertexId, z: VertexId) -> Self {
        let mut t = [x, y, z];
        t.sort_unstable();
        assert!(t[0] != t[1] && t[1] != t[2], "degenerate triangle {t:?}");
        Self {
            a: t[0],
            b: t[1],
            c: t[2],
        }
    }

    /// The pivot edge `{b, c}` (the edge between the two largest vertices).
    pub fn pivot(&self) -> Edge {
        Edge::new(self.b, self.c)
    }

    /// The cone vertex `a` (the smallest vertex).
    pub fn cone(&self) -> VertexId {
        self.a
    }

    /// The three edges of the triangle.
    pub fn edges(&self) -> [Edge; 3] {
        [
            Edge::new(self.a, self.b),
            Edge::new(self.a, self.c),
            Edge::new(self.b, self.c),
        ]
    }

    /// A 64-bit mixing of the triangle used for order-independent checksums.
    pub fn digest(&self) -> u64 {
        let mut x = (self.a as u64) << 42 ^ (self.b as u64) << 21 ^ self.c as u64;
        // splitmix64 finaliser
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

/// An error produced by [`Graph::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint is outside `[0, num_vertices)`.
    VertexOutOfRange(VertexId),
    /// The same edge appears twice.
    DuplicateEdge(Edge),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange(v) => write!(f, "vertex {v} out of range"),
            GraphError::DuplicateEdge(e) => write!(f, "duplicate edge {{{}, {}}}", e.u, e.v),
        }
    }
}

impl std::error::Error for GraphError {}

/// A simple undirected graph held in memory as an edge list.
///
/// This type is the *input specification*; the algorithms copy it into
/// simulated external memory before running, so its in-core existence does
/// not let any algorithm cheat the I/O accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    num_vertices: usize,
    edges: Vec<Edge>,
}

impl Graph {
    /// Creates a graph with `num_vertices` isolated vertices.
    pub fn empty(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Builds a graph from an edge list, deduplicating and canonicalising the
    /// edges. Vertex count is taken as `max endpoint + 1` unless
    /// `num_vertices` is larger.
    pub fn from_edges(num_vertices: usize, edges: impl IntoIterator<Item = Edge>) -> Self {
        let mut edges: Vec<Edge> = edges.into_iter().collect();
        edges.sort_unstable();
        edges.dedup();
        let max_v = edges.iter().map(|e| e.v as usize + 1).max().unwrap_or(0);
        Self {
            num_vertices: num_vertices.max(max_v),
            edges,
        }
    }

    /// Adds edge `{a, b}` (not deduplicated; call [`Graph::from_edges`] or
    /// validate afterwards for strictness).
    pub fn add_edge(&mut self, a: VertexId, b: VertexId) {
        let e = Edge::new(a, b);
        self.num_vertices = self.num_vertices.max(e.v as usize + 1);
        self.edges.push(e);
    }

    /// Number of vertices `V` (including isolated ones).
    pub fn vertex_count(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges `E`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The edges, in whatever order they are currently stored.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Per-vertex degrees.
    pub fn degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices];
        for e in &self.edges {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        deg
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> u32 {
        self.degrees().into_iter().max().unwrap_or(0)
    }

    /// Checks that the graph is simple: endpoints in range and no duplicate
    /// edges. (Self loops are impossible by construction of [`Edge`].)
    pub fn validate(&self) -> Result<(), GraphError> {
        let mut seen = std::collections::HashSet::with_capacity(self.edges.len());
        for e in &self.edges {
            if e.v as usize >= self.num_vertices {
                return Err(GraphError::VertexOutOfRange(e.v));
            }
            if !seen.insert(*e) {
                return Err(GraphError::DuplicateEdge(*e));
            }
        }
        Ok(())
    }

    /// Returns the paper's canonical form of the graph: vertices renumbered
    /// so that integer order equals the degree order (ties broken by original
    /// id — an "arbitrary but consistent" tie-break, as the paper requires),
    /// edges re-canonicalised and sorted lexicographically.
    ///
    /// Also returns the mapping `new id → old id` so callers can translate
    /// emitted triangles back to the original vertex names.
    pub fn degree_ordered(&self) -> (Graph, Vec<VertexId>) {
        // Degrees of the simple graph: a repeated edge must not lift its
        // endpoints above vertices of higher true degree.
        let simple = Graph::from_edges(self.num_vertices, self.edges.iter().copied());
        let deg = simple.degrees();
        let mut order: Vec<VertexId> = (0..self.num_vertices as u32).collect();
        order.sort_unstable_by_key(|&v| (deg[v as usize], v));
        // order[rank] = old id; build inverse: old id -> rank.
        let mut rank = vec![0u32; self.num_vertices];
        for (r, &old) in order.iter().enumerate() {
            rank[old as usize] = r as u32;
        }
        let mut new_edges: Vec<Edge> = simple
            .edges
            .iter()
            .map(|e| Edge::new(rank[e.u as usize], rank[e.v as usize]))
            .collect();
        new_edges.sort_unstable();
        (
            Graph {
                num_vertices: self.num_vertices,
                edges: new_edges,
            },
            order,
        )
    }

    /// An upper bound on the number of triangles, `E^{3/2}` (attained by the
    /// clique up to constants) — handy for sizing buffers in tests.
    pub fn triangle_upper_bound(&self) -> u64 {
        (self.edges.len() as f64).powf(1.5).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_canonicalisation() {
        assert_eq!(Edge::new(5, 2), Edge { u: 2, v: 5 });
        assert_eq!(Edge::new(2, 5), Edge { u: 2, v: 5 });
        assert!(Edge::new(1, 2).touches(1));
        assert_eq!(Edge::new(1, 2).other(1), 2);
        assert_eq!(Edge::new(1, 2).other(2), 1);
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        let _ = Edge::new(3, 3);
    }

    #[test]
    fn edge_record_roundtrip_preserves_order() {
        let e = Edge::new(70_000, 3);
        let mut w = [0u64];
        e.encode(&mut w);
        assert_eq!(Edge::decode(&w), e);
        // Packed order equals lexicographic order.
        let mut w2 = [0u64];
        Edge::new(4, 1_000_000).encode(&mut w2);
        assert!(w[0] < w2[0]);
    }

    #[test]
    fn triangle_canonicalisation_and_parts() {
        let t = Triangle::new(9, 2, 5);
        assert_eq!((t.a, t.b, t.c), (2, 5, 9));
        assert_eq!(t.cone(), 2);
        assert_eq!(t.pivot(), Edge::new(5, 9));
        assert_eq!(t.edges().len(), 3);
        assert_ne!(t.digest(), Triangle::new(2, 5, 10).digest());
    }

    #[test]
    #[should_panic]
    fn degenerate_triangle_rejected() {
        let _ = Triangle::new(1, 1, 2);
    }

    #[test]
    fn graph_construction_and_validation() {
        let mut g = Graph::empty(3);
        g.add_edge(0, 1);
        g.add_edge(2, 1);
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        g.validate().unwrap();
        g.add_edge(0, 1);
        assert!(matches!(g.validate(), Err(GraphError::DuplicateEdge(_))));
    }

    #[test]
    fn from_edges_dedups() {
        let g = Graph::from_edges(0, vec![Edge::new(1, 0), Edge::new(0, 1), Edge::new(1, 2)]);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.vertex_count(), 3);
        g.validate().unwrap();
    }

    #[test]
    fn degrees_and_max_degree() {
        let g = Graph::from_edges(
            5,
            vec![
                Edge::new(0, 1),
                Edge::new(0, 2),
                Edge::new(0, 3),
                Edge::new(1, 2),
            ],
        );
        assert_eq!(g.degrees(), vec![3, 2, 2, 1, 0]);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn degree_ordering_puts_low_degree_first_and_preserves_structure() {
        // Star with centre 0 plus a pendant triangle: centre must be renamed
        // to the largest id.
        let g = Graph::from_edges(
            6,
            vec![
                Edge::new(0, 1),
                Edge::new(0, 2),
                Edge::new(0, 3),
                Edge::new(0, 4),
                Edge::new(0, 5),
                Edge::new(4, 5),
            ],
        );
        let (ordered, back) = g.degree_ordered();
        assert_eq!(ordered.edge_count(), g.edge_count());
        assert_eq!(ordered.vertex_count(), g.vertex_count());
        ordered.validate().unwrap();
        // The old centre (vertex 0, degree 5) must receive the largest rank.
        let centre_rank = back.iter().position(|&old| old == 0).unwrap();
        assert_eq!(centre_rank, g.vertex_count() - 1);
        // Degrees are non-decreasing in the new numbering.
        let deg = ordered.degrees();
        let mut sorted = deg.clone();
        sorted.sort_unstable();
        assert_eq!(deg, sorted);
    }

    #[test]
    fn degree_ordering_counts_a_repeated_edge_once() {
        // Edge {0, 1} five times over a triangle on {2, 3, 4}: counted with
        // multiplicity, 0 and 1 would outrank the degree-2 triangle vertices.
        let mut g = Graph::empty(5);
        for _ in 0..5 {
            g.add_edge(0, 1);
        }
        g.add_edge(2, 3);
        g.add_edge(2, 4);
        g.add_edge(3, 4);
        let (ordered, _) = g.degree_ordered();
        assert_eq!(ordered.edge_count(), 4);
        assert_eq!(ordered.degrees(), vec![1, 1, 2, 2, 2]);
    }

    #[test]
    fn degree_ordering_is_a_permutation() {
        let g = Graph::from_edges(
            4,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 2),
                Edge::new(2, 3),
                Edge::new(0, 3),
            ],
        );
        let (_, back) = g.degree_ordered();
        let mut sorted = back.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }
}
