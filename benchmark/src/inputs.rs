//! Seeded input generation: graphs, their files, and the data directory.

use crate::Scale;
use qcm_gen::DatasetSpec;
use qcm_graph::{io, Graph, GraphBuilder};
use std::path::{Path, PathBuf};

/// SplitMix64: a small, fully specified PRNG, so a seed means the same
/// inputs whatever the vendored `rand` does.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed` and a per-use `stream` tag.
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        let mut rng = SplitMix64(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The workload's data directory, removed when dropped.
pub struct DataDir(PathBuf);

impl DataDir {
    /// Creates `path` (and its parents).
    pub fn create(path: &Path) -> DataDir {
        std::fs::create_dir_all(path)
            .unwrap_or_else(|e| panic!("creating data directory {}: {e}", path.display()));
        DataDir(path.to_path_buf())
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The YouTube stand-in (the straggler regime) at its fixed generator
/// seed, renumbered densely. Reseeding the generator moved `mine_s`
/// between 0.72 s and 1.2 s across seeds (its planted communities and hard
/// core change), so the benchmark's seed picks vertex relabellings of this
/// one graph instead ([`relabel`]).
pub fn hardcore_graph(scale: Scale) -> Graph {
    let mut spec = qcm_gen::datasets::youtube();
    if scale == Scale::Tiny {
        spec.num_vertices = 2_000;
        spec.hard_core = Some((20, 0.64));
    }
    let graph = spec.generate().graph;
    let edges: Vec<(u32, u32)> = graph.edges().map(|(u, v)| (u.raw(), v.raw())).collect();
    compact(graph.num_vertices(), &edges)
}

/// A seeded random relabelling of `graph`'s vertices: the isomorphic copy
/// and the map from old to new ids. The copy has the same answer, mapped,
/// but a different search order, so its cost differs a little.
pub fn relabel(graph: &Graph, seed: u64, stream: u64) -> (Graph, Vec<u32>) {
    let mut rng = SplitMix64::new(seed, stream);
    let n = graph.num_vertices();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    let mut builder = GraphBuilder::with_capacity(n, graph.num_edges());
    builder.set_min_vertices(n);
    for (u, v) in graph.edges() {
        builder.add_edge_raw(perm[u.raw() as usize], perm[v.raw() as usize]);
    }
    (builder.build(), perm)
}

/// The DBLP-like sparse graph at 400k vertices, generated from `--seed`:
/// without a hard core its cost barely moves across seeds.
pub fn sparse_graph(seed: u64, scale: Scale) -> Graph {
    let mut spec = qcm_gen::datasets::dblp();
    spec.num_vertices = match scale {
        Scale::Full => 400_000,
        Scale::Tiny => 5_000,
    };
    spec.seed = SplitMix64::new(seed, 2).next_u64();
    let graph = spec.generate().graph;
    let edges: Vec<(u32, u32)> = graph.edges().map(|(u, v)| (u.raw(), v.raw())).collect();
    compact(graph.num_vertices(), &edges)
}

/// The four stand-ins the serve loop queries, at their fixed generator
/// seeds (the serve loop's randomness is in its schedule).
pub fn serve_specs(scale: Scale) -> Vec<DatasetSpec> {
    let mut specs = vec![
        qcm_gen::datasets::cx_gse1730(),
        qcm_gen::datasets::cx_gse10158(),
        qcm_gen::datasets::ca_grqc(),
        qcm_gen::datasets::hyves(),
    ];
    if scale == Scale::Tiny {
        for spec in &mut specs {
            spec.num_vertices = spec.num_vertices.min(1_500);
            spec.hard_core = spec.hard_core.map(|(_, p)| (20, p));
        }
    }
    specs
}

/// Renumbers the non-isolated vertices of an `n`-vertex edge set densely in
/// id order — the numbering the edge-list reader gives the written file, so
/// answers computed on the returned graph compare directly with answers
/// computed on the file as loaded.
fn compact(n: usize, edges: &[(u32, u32)]) -> Graph {
    let mut new_id = vec![u32::MAX; n];
    for &(u, v) in edges {
        new_id[u as usize] = 0;
        new_id[v as usize] = 0;
    }
    let mut next = 0u32;
    for id in new_id.iter_mut().filter(|id| **id == 0) {
        *id = next;
        next += 1;
    }
    let mut builder = GraphBuilder::with_capacity(next as usize, edges.len());
    builder.set_min_vertices(next as usize);
    for &(u, v) in edges {
        builder.add_edge_raw(new_id[u as usize], new_id[v as usize]);
    }
    builder.build()
}

/// Writes `graph` as an edge list and returns the file's size in bytes.
pub fn write_graph(graph: &Graph, path: &Path) -> u64 {
    io::write_edge_list_file(graph, path)
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    std::fs::metadata(path)
        .unwrap_or_else(|e| panic!("stat {}: {e}", path.display()))
        .len()
}

/// A served graph's edge-list file and its seeded one-edge rewrites.
///
/// Each rewrite appends one edge from an existing vertex to a new pendant
/// vertex. The content (and so the fingerprint) changes every time and the
/// file only grows, so the registry's `(mtime, len)` stat check always sees
/// the change. The answers do not change: a degree-1 vertex cannot be in a
/// γ-quasi-clique of `τ_size` vertices when `γ·(τ_size − 1) > 1`, and adding
/// it leaves every other induced subgraph as it was.
pub struct GraphFile {
    /// Registry name.
    pub name: String,
    /// File name, relative to the server's graph root.
    pub file_name: String,
    path: PathBuf,
    text: Vec<u8>,
    attach: Vec<u32>,
    next_pendant: u64,
}

impl GraphFile {
    /// Writes `graph` as `<dir>/<name>.txt`.
    pub fn create(dir: &Path, name: &str, graph: &Graph) -> GraphFile {
        let mut text = Vec::new();
        io::write_edge_list(graph, &mut text).expect("writing an edge list to memory");
        let file_name = format!("{name}.txt");
        let file = GraphFile {
            name: name.to_string(),
            path: dir.join(&file_name),
            file_name,
            text,
            attach: graph
                .vertices()
                .filter(|&v| graph.degree(v) > 0)
                .map(|v| v.raw())
                .collect(),
            next_pendant: graph.num_vertices() as u64,
        };
        file.write();
        file
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one seeded pendant edge and replaces the file atomically
    /// (write then rename), so a concurrent reader never sees half a file.
    pub fn rewrite(&mut self, rng: &mut SplitMix64) {
        let anchor = self.attach[rng.below(self.attach.len())];
        self.text
            .extend_from_slice(format!("{anchor}\t{}\n", self.next_pendant).as_bytes());
        self.next_pendant += 1;
        self.write();
    }

    fn write(&self) {
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, &self.text)
            .unwrap_or_else(|e| panic!("writing {}: {e}", tmp.display()));
        std::fs::rename(&tmp, &self.path)
            .unwrap_or_else(|e| panic!("renaming {}: {e}", tmp.display()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_per_seed_and_stream() {
        let draw = |seed, stream| {
            let mut rng = SplitMix64::new(seed, stream);
            [rng.next_u64(), rng.next_u64()]
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
    }

    #[test]
    fn compact_matches_the_edge_list_reader() {
        // Vertex 1 and 4 are isolated; the reader drops them from the file.
        let graph = compact(6, &[(0, 2), (2, 3), (5, 0)]);
        let mut text = Vec::new();
        io::write_edge_list(&graph, &mut text).unwrap();
        let loaded = io::read_auto(&text).unwrap();
        assert_eq!(loaded.num_vertices(), 4);
        assert_eq!(loaded.content_hash(), graph.content_hash());
    }
}
