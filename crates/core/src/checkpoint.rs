//! Crash-safe checkpoints of the cache-oblivious driver.
//!
//! A checkpoint captures, at a subproblem boundary, everything the explicit
//! depth-first stack needs to continue after the process dies: the run
//! parameters (`seed`, root edge count, depth limit — the colour-refinement
//! tree is a pure function of these), the sink's high-water mark (triangles
//! durably committed so far) and the stack frontier (one compact descriptor
//! per pending subproblem — the stack holds nothing else). No other state
//! spans subproblems: an oversized depth-limit leaf is closed before the
//! next boundary, and a pending node's heavy-hitter summary is not persisted
//! (the scan that rebuilds a resumed node's edges feeds it again).
//!
//! A pending subproblem's *edge list* is deliberately **not** serialised.
//! Compatibility is hereditary (an edge whose colour pair lies in a node's
//! colour multiset at its depth lies in every ancestor's), and both
//! high-degree removal and partition routing preserve the root's `(u, v)`
//! order — so the node's exact edge list is recovered by an order-preserving
//! scan of the (re-sorted) root: keep each edge whose colour pair lies in the
//! node's target at its depth and which is not incident to a vertex in the
//! node's accumulated `removed` set. One routed scan recovers up to 32
//! frontier nodes at once, one bucket each. That makes checkpoints
//! `O(frontier)` words instead of `O(E)`.
//!
//! Checkpoints are serialised with the repo's hand-rolled flat-JSON style (no
//! serde in the dependency tree) and written **atomically**: the bytes go to
//! a temporary file which is then renamed over the target, so a crash during
//! the write leaves either the previous checkpoint or the new one, never a
//! truncated hybrid. Writing durable state targets the *host* filesystem —
//! it models a separate durable store and is not charged to the simulated
//! machine.

use std::io::Write;
use std::path::{Path, PathBuf};

/// When and where the cache-oblivious driver writes checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Target file of the (atomically replaced) checkpoint.
    pub path: PathBuf,
    /// Write a checkpoint at the first subproblem boundary after this many
    /// simulated I/Os have accumulated since the previous checkpoint.
    pub interval_io: u64,
}

/// The crash-safety arguments of a run: where and how often to checkpoint,
/// and the checkpoint to resume from. Both `None` (the default) is the
/// ordinary run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Recovery<'a> {
    pub spec: Option<&'a CheckpointSpec>,
    pub resume: Option<&'a Checkpoint>,
}

/// One pending subproblem of the depth-first stack: enough to reconstruct its
/// edge list from the root by a single compatibility-and-removal filter scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeDescriptor {
    /// Depth of the node in the colour-refinement tree.
    pub depth: usize,
    /// The node's colour multiset `{c0, c1, c2}`, sorted.
    pub target: [u64; 3],
    /// Sorted vertex ids removed by high-degree enumeration along the node's
    /// ancestor path (removal sets at different levels are disjoint: a
    /// removed vertex has no edges left below its removal level).
    pub removed: Vec<u32>,
}

/// A complete, resumable snapshot of a cache-oblivious run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Format version (current: 4).
    pub version: u32,
    /// Seed of the per-level refinement bits.
    pub seed: u64,
    /// Root edge count (sanity-checked against the input on resume).
    pub edges: usize,
    /// Depth limit `⌈log₄ E⌉` of the run.
    pub depth_limit: usize,
    /// Triangles durably committed when this checkpoint was taken — the
    /// sink's high-water mark. Resume restarts emission numbering here.
    pub hwm: u64,
    /// The pending subproblems of the driver stack, bottom-to-top.
    pub frontier: Vec<NodeDescriptor>,
}

/// Current checkpoint format version. Version 1 also carried a log of
/// batched oversized leaves, and versions 1 and 2 interleaved gauge-lease
/// markers (`release` entries) with the nodes of the frontier. Versions 1–3
/// name each node by an *ordered* colour vector `(c0, c1, c2)`, while
/// version 4's target is a sorted colour multiset of a different tree. All
/// older versions are rejected, not migrated.
pub const CHECKPOINT_VERSION: u32 = 4;

impl Checkpoint {
    /// Serialises the checkpoint as flat JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 64 * self.frontier.len()); // emlint: allow(unleased, reason = "host-side durable-state serialisation, not simulated-machine memory")
        out.push_str(&format!(
            "{{\n  \"version\": {},\n  \"seed\": {},\n  \"edges\": {},\n  \"depth_limit\": {},\n  \"hwm\": {},\n",
            self.version, self.seed, self.edges, self.depth_limit, self.hwm
        ));
        out.push_str("  \"frontier\": [");
        for (i, node) in self.frontier.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&node_json(node));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a checkpoint from its JSON serialisation.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntactic or structural problem
    /// (truncated file, wrong version, missing field, wrong type).
    pub fn parse(text: &str) -> Result<Checkpoint, String> {
        let value = Json::parse(text)?;
        let obj = value.as_object("checkpoint")?;
        let version = u32::try_from(get_u64(obj, "version")?)
            .map_err(|_| "field 'version' out of range".to_string())?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            ));
        }
        let edges = usize::try_from(get_u64(obj, "edges")?)
            .map_err(|_| "field 'edges' out of range".to_string())?;
        let depth_limit = usize::try_from(get_u64(obj, "depth_limit")?)
            .map_err(|_| "field 'depth_limit' out of range".to_string())?;
        // emlint: allow(unleased, reason = "host-side durable-state deserialisation, not simulated-machine memory")
        let frontier = get(obj, "frontier")?
            .as_array("frontier")?
            .iter()
            .map(|node| parse_node(node.as_object("frontier entry")?))
            .collect::<Result<_, _>>()?;
        Ok(Checkpoint {
            version,
            seed: get_u64(obj, "seed")?,
            edges,
            depth_limit,
            hwm: get_u64(obj, "hwm")?,
            frontier,
        })
    }

    /// Writes the checkpoint atomically: serialise to `<path>.tmp`, sync,
    /// rename over `path`. A crash mid-write leaves the previous checkpoint
    /// intact.
    pub fn write_atomic(&self, path: &Path) -> std::io::Result<()> {
        atomic_write(path, self.to_json().as_bytes())
    }

    /// Loads and parses a checkpoint file.
    pub fn load(path: &Path) -> std::io::Result<Checkpoint> {
        let text = std::fs::read_to_string(path)?;
        Checkpoint::parse(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

fn node_json(node: &NodeDescriptor) -> String {
    let mut removed = String::new();
    for (i, v) in node.removed.iter().enumerate() {
        if i > 0 {
            removed.push_str(", ");
        }
        removed.push_str(&v.to_string());
    }
    let [c0, c1, c2] = node.target;
    format!(
        "{{\"depth\": {}, \"target\": [{c0}, {c1}, {c2}], \"removed\": [{removed}]}}",
        node.depth
    )
}

fn parse_node(obj: &[(String, Json)]) -> Result<NodeDescriptor, String> {
    let depth = usize::try_from(get_u64(obj, "depth")?)
        .map_err(|_| "field 'depth' out of range".to_string())?;
    let target = get(obj, "target")?.as_array("target")?;
    if target.len() != 3 {
        return Err("field 'target' must hold exactly three colours".to_string());
    }
    let target = [
        target[0].as_u64("target[0]")?,
        target[1].as_u64("target[1]")?,
        target[2].as_u64("target[2]")?,
    ];
    if !target.is_sorted() {
        return Err("field 'target' must list its colours in ascending order".to_string());
    }
    let mut removed = Vec::new(); // emlint: allow(unleased, reason = "host-side durable-state deserialisation, not simulated-machine memory")
    for v in get(obj, "removed")?.as_array("removed")? {
        removed.push(
            u32::try_from(v.as_u64("removed entry")?)
                .map_err(|_| "removed vertex id out of range".to_string())?,
        );
    }
    Ok(NodeDescriptor {
        depth,
        target,
        removed,
    })
}

/// Writes `bytes` to `path` atomically (temp file in the same directory,
/// flush, rename). Shared by the checkpoint writer and the experiment-record
/// writer so no crashed run can leave a truncated artifact.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON reader: just enough for the checkpoint
// format (objects, arrays, unsigned integers) and for older versions' plain
// string values, so that such a file parses far enough to be rejected by its
// version. Kept here so the core crate stays free of serialisation
// dependencies.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Num(u64),
    /// A string value; only older versions wrote them (`kind` tags), and
    /// their text is never needed.
    Str,
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    fn as_object(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(fields) => Ok(fields),
            _ => Err(format!("{what}: expected an object")),
        }
    }

    fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(format!("{what}: expected an array")),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            _ => Err(format!("{what}: expected an unsigned integer")),
        }
    }
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field '{key}'"))
}

fn get_u64(obj: &[(String, Json)], key: &str) -> Result<u64, String> {
    get(obj, key)?.as_u64(key)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(|_| Json::Str),
        Some(c) if c.is_ascii_digit() => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte '{}' at {}", *c as char, *pos)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut fields = Vec::new(); // emlint: allow(unleased, reason = "host-side durable-state deserialisation, not simulated-machine memory")
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new(); // emlint: allow(unleased, reason = "host-side durable-state deserialisation, not simulated-machine memory")
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}"));
    }
    *pos += 1;
    let start = *pos;
    while let Some(&c) = bytes.get(*pos) {
        if c == b'"' {
            let s = std::str::from_utf8(&bytes[start..*pos])
                .map_err(|_| "invalid UTF-8 in string".to_string())?
                .to_string();
            *pos += 1;
            return Ok(s);
        }
        if c == b'\\' {
            return Err("escape sequences are not used by the checkpoint format".to_string());
        }
        *pos += 1;
    }
    Err("unterminated string".to_string())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            seed: 7,
            edges: 2_000,
            depth_limit: 6,
            hwm: 123,
            frontier: vec![
                NodeDescriptor {
                    depth: 1,
                    target: [1, 1, 2],
                    removed: vec![],
                },
                NodeDescriptor {
                    depth: 2,
                    target: [3, 4, 4],
                    removed: vec![5, 17, 99],
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let c = sample();
        let parsed = Checkpoint::parse(&c.to_json()).unwrap();
        assert_eq!(parsed, c);
    }

    #[test]
    fn empty_frontier_round_trips() {
        let c = Checkpoint {
            version: CHECKPOINT_VERSION,
            seed: 0,
            edges: 3,
            depth_limit: 1,
            hwm: 0,
            frontier: vec![],
        };
        assert_eq!(Checkpoint::parse(&c.to_json()).unwrap(), c);
    }

    #[test]
    fn truncated_and_malformed_inputs_are_rejected_with_reasons() {
        let json = sample().to_json();
        let truncated = &json[..json.len() / 2];
        assert!(Checkpoint::parse(truncated).is_err());
        assert!(Checkpoint::parse("").is_err());
        assert!(Checkpoint::parse("{\"version\": 4}")
            .unwrap_err()
            .contains("missing field"));
        let wrong_version = json.replace("\"version\": 4", "\"version\": 9");
        assert_ne!(wrong_version, json);
        assert!(Checkpoint::parse(&wrong_version)
            .unwrap_err()
            .contains("version"));
    }

    #[test]
    fn version_1_documents_are_rejected() {
        // The sample as version 1 wrote it, with its log of batched
        // oversized leaves after the frontier.
        let v1 = r#"{
  "version": 1,
  "seed": 7,
  "edges": 2000,
  "depth_limit": 6,
  "hwm": 123,
  "frontier": [
    {"kind": "node", "depth": 0, "target": [1, 1, 1], "removed": []},
    {"kind": "release", "words": 264},
    {"kind": "node", "depth": 2, "target": [3, 4, 4], "removed": [5, 17, 99]}
  ],
  "leaves": [
    {"kind": "node", "depth": 6, "target": [41, 42, 43], "removed": [2]}
  ]
}
"#;
        let err = Checkpoint::parse(v1).unwrap_err();
        assert!(
            err.contains("unsupported checkpoint version 1"),
            "unexpected error: {err}"
        );

        let dir =
            std::env::temp_dir().join(format!("trienum-checkpoint-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        std::fs::write(&path, v1).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_2_documents_with_release_entries_are_rejected() {
        // The sample as version 2 wrote it: tagged node entries with the
        // parent's summary lease as a `release` entry between them.
        let v2 = r#"{
  "version": 2,
  "seed": 7,
  "edges": 2000,
  "depth_limit": 6,
  "hwm": 123,
  "frontier": [
    {"kind": "node", "depth": 1, "target": [1, 1, 2], "removed": []},
    {"kind": "release", "words": 264},
    {"kind": "node", "depth": 2, "target": [3, 4, 4], "removed": [5, 17, 99]}
  ]
}
"#;
        assert_eq!(
            Checkpoint::parse(v2).unwrap_err(),
            "unsupported checkpoint version 2 (expected 4)"
        );
    }

    #[test]
    fn version_3_documents_are_rejected() {
        // The same format, but version 3's targets are ordered colour
        // vectors of the old tree: [1, 2, 1] names a node there and no
        // multiset here.
        let v3 = r#"{
  "version": 3,
  "seed": 7,
  "edges": 2000,
  "depth_limit": 6,
  "hwm": 123,
  "frontier": [
    {"depth": 1, "target": [1, 2, 1], "removed": []},
    {"depth": 2, "target": [3, 4, 4], "removed": [5, 17, 99]}
  ]
}
"#;
        assert_eq!(
            Checkpoint::parse(v3).unwrap_err(),
            "unsupported checkpoint version 3 (expected 4)"
        );
        let v4 = v3.replace("\"version\": 3", "\"version\": 4");
        assert!(Checkpoint::parse(&v4).unwrap_err().contains("ascending"));
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp_file() {
        let dir =
            std::env::temp_dir().join(format!("trienum-checkpoint-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let c = sample();
        c.write_atomic(&path).unwrap();
        let mut newer = c.clone();
        newer.hwm = 999;
        newer.write_atomic(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded, newer);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(
            !PathBuf::from(tmp).exists(),
            "the temp file must be renamed away"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_of_a_missing_file_is_an_io_error() {
        let err = Checkpoint::load(Path::new("/nonexistent/trienum/ckpt.json")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }
}
