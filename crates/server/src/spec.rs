//! Cluster spec: a minimal hand-rolled TOML-subset parser.
//!
//! The deployment spec for `mystore-server` is a TOML file restricted to
//! what a cluster description needs — one `[cluster]` table and repeated
//! `[[node]]` tables, with integer, string, and integer-array values:
//!
//! ```toml
//! [cluster]
//! nwr = [3, 2, 1]
//! vnodes = 64
//! seeds = [0]
//! gossip_interval_ms = 50
//!
//! [[node]]
//! id = 0
//! listen = "127.0.0.1:7100"
//! http = "127.0.0.1:8100"
//!
//! [[node]]
//! id = 1
//! listen = "127.0.0.1:7101"
//! ```
//!
//! The container has no TOML crate (offline build), and the full language
//! (nested tables, dates, multiline strings) buys nothing here, so the
//! parser accepts exactly this subset and rejects everything else loudly.

use mystore_core::Nwr;
use mystore_net::NodeId;

/// One node entry from the spec.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Cluster-wide node id.
    pub id: u32,
    /// Wire (peer + binary client) listen address.
    pub listen: String,
    /// Optional REST listen address; a node with one also hosts a frontend.
    pub http: Option<String>,
}

/// A parsed deployment spec.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    /// Replication parameters; defaults to the paper's (3, 2, 1).
    pub nwr: Nwr,
    /// Virtual nodes per physical node on the hash ring.
    pub vnodes: usize,
    /// Gossip seed node ids.
    pub seeds: Vec<NodeId>,
    /// Gossip round interval in milliseconds.
    pub gossip_interval_ms: u64,
    /// WAL directory; in-memory stores when absent.
    pub data_dir: Option<String>,
    /// The storage nodes.
    pub nodes: Vec<NodeSpec>,
}

impl ServerSpec {
    /// A loopback spec for `n` nodes with OS-assigned ports: node 0 seeds
    /// gossip and serves REST. Used by tests and the benchmark.
    pub fn local(n: u32) -> ServerSpec {
        ServerSpec {
            nwr: Nwr::PAPER,
            vnodes: 64,
            seeds: vec![NodeId(0)],
            gossip_interval_ms: 50,
            data_dir: None,
            nodes: (0..n)
                .map(|id| NodeSpec {
                    id,
                    listen: "127.0.0.1:0".to_string(),
                    http: (id == 0).then(|| "127.0.0.1:0".to_string()),
                })
                .collect(),
        }
    }

    /// All storage node ids in the spec, in file order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().map(|n| NodeId(n.id)).collect()
    }

    /// Parses the TOML subset. Errors carry the 1-based line number.
    pub fn parse(text: &str) -> Result<ServerSpec, String> {
        let mut spec = ServerSpec {
            nwr: Nwr::PAPER,
            vnodes: 64,
            seeds: Vec::new(),
            gossip_interval_ms: 50,
            data_dir: None,
            nodes: Vec::new(),
        };
        #[derive(PartialEq)]
        enum Section {
            None,
            Cluster,
            Node,
        }
        let mut section = Section::None;
        for (ln, raw) in text.lines().enumerate() {
            let ln = ln + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line == "[cluster]" {
                section = Section::Cluster;
                continue;
            }
            if line == "[[node]]" {
                section = Section::Node;
                spec.nodes.push(NodeSpec { id: 0, listen: String::new(), http: None });
                continue;
            }
            if line.starts_with('[') {
                return Err(format!("line {ln}: unknown section {line}"));
            }
            let (key, value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| format!("line {ln}: expected `key = value`"))?;
            match section {
                Section::None => {
                    return Err(format!("line {ln}: `{key}` outside any section"));
                }
                Section::Cluster => match key {
                    "nwr" => {
                        let v = parse_int_array(value, ln)?;
                        let [n, w, r] = v[..] else {
                            return Err(format!("line {ln}: nwr needs exactly [N, W, R]"));
                        };
                        spec.nwr = Nwr { n: n as usize, w: w as usize, r: r as usize };
                    }
                    "vnodes" => spec.vnodes = parse_int(value, ln)? as usize,
                    "seeds" => {
                        spec.seeds =
                            parse_int_array(value, ln)?.iter().map(|&i| NodeId(i as u32)).collect()
                    }
                    "gossip_interval_ms" => spec.gossip_interval_ms = parse_int(value, ln)?,
                    "data_dir" => spec.data_dir = Some(parse_str(value, ln)?),
                    _ => return Err(format!("line {ln}: unknown cluster key `{key}`")),
                },
                Section::Node => {
                    let node = spec.nodes.last_mut().expect("entered [[node]]");
                    match key {
                        "id" => node.id = parse_int(value, ln)? as u32,
                        "listen" => node.listen = parse_str(value, ln)?,
                        "http" => node.http = Some(parse_str(value, ln)?),
                        _ => return Err(format!("line {ln}: unknown node key `{key}`")),
                    }
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("spec has no [[node]] entries".to_string());
        }
        let mut seen = std::collections::BTreeSet::new();
        for node in &self.nodes {
            if node.listen.is_empty() {
                return Err(format!("node {} has no listen address", node.id));
            }
            if !seen.insert(node.id) {
                return Err(format!("duplicate node id {}", node.id));
            }
        }
        if self.nwr.n == 0 || self.nwr.w == 0 || self.nwr.w > self.nwr.n || self.nwr.r > self.nwr.n
        {
            return Err(format!("invalid NWR ({}, {}, {})", self.nwr.n, self.nwr.w, self.nwr.r));
        }
        for seed in &self.seeds {
            if !seen.contains(&seed.0) {
                return Err(format!("seed {} is not a [[node]]", seed.0));
            }
        }
        Ok(())
    }
}

/// Strips a trailing `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_int(v: &str, ln: usize) -> Result<u64, String> {
    v.parse::<u64>().map_err(|_| format!("line {ln}: expected integer, got `{v}`"))
}

fn parse_str(v: &str, ln: usize) -> Result<String, String> {
    let inner = v
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("line {ln}: expected \"string\", got `{v}`"))?;
    if inner.contains('"') {
        return Err(format!("line {ln}: embedded quote in `{v}`"));
    }
    Ok(inner.to_string())
}

fn parse_int_array(v: &str, ln: usize) -> Result<Vec<u64>, String> {
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("line {ln}: expected [array], got `{v}`"))?;
    let inner = inner.trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner.split(',').map(|e| parse_int(e.trim(), ln)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# demo cluster
[cluster]
nwr = [3, 2, 1]
vnodes = 32            # trailing comment
seeds = [0, 1]
gossip_interval_ms = 25
data_dir = "/tmp/ms"

[[node]]
id = 0
listen = "127.0.0.1:7100"
http = "127.0.0.1:8100"

[[node]]
id = 1
listen = "127.0.0.1:7101"
"#;

    #[test]
    fn parses_the_documented_subset() {
        let spec = ServerSpec::parse(SAMPLE).unwrap();
        assert_eq!((spec.nwr.n, spec.nwr.w, spec.nwr.r), (3, 2, 1));
        assert_eq!(spec.vnodes, 32);
        assert_eq!(spec.seeds, vec![NodeId(0), NodeId(1)]);
        assert_eq!(spec.gossip_interval_ms, 25);
        assert_eq!(spec.data_dir.as_deref(), Some("/tmp/ms"));
        assert_eq!(spec.nodes.len(), 2);
        assert_eq!(spec.nodes[0].http.as_deref(), Some("127.0.0.1:8100"));
        assert_eq!(spec.nodes[1].http, None);
        assert_eq!(spec.nodes[1].listen, "127.0.0.1:7101");
    }

    #[test]
    fn rejects_malformed_specs() {
        for (bad, why) in [
            ("id = 0", "key outside section"),
            ("[cluster]\nnwr = [3, 2]", "short nwr"),
            ("[cluster]\nbogus = 1", "unknown key"),
            ("[[node]]\nid = 0", "missing listen"),
            ("[[node]]\nid = 0\nlisten = \"a\"\n[[node]]\nid = 0\nlisten = \"b\"", "dup id"),
            ("[cluster]\nseeds = [9]\n[[node]]\nid = 0\nlisten = \"a\"", "ghost seed"),
            ("[cluster]\nnwr = [3, 4, 1]\n[[node]]\nid = 0\nlisten = \"a\"", "W > N"),
            ("", "empty"),
        ] {
            assert!(ServerSpec::parse(bad).is_err(), "accepted: {why}");
        }
    }

    #[test]
    fn local_spec_is_valid() {
        let spec = ServerSpec::local(5);
        assert!(spec.validate().is_ok());
        assert_eq!(spec.nodes.len(), 5);
        assert!(spec.nodes[0].http.is_some() && spec.nodes[1].http.is_none());
    }
}
