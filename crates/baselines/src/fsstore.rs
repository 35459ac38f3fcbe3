//! The ext3 baseline: unstructured data in a local file system with an
//! in-memory index table (paper §1, first storage option; compared in
//! Figs. 11–12).
//!
//! Two forms:
//!
//! * [`LocalFileStore`] — a real directory-backed store (bucketed files,
//!   index rebuilt on open), usable from examples and tested against a real
//!   tmpdir;
//! * [`FsStoreNode`] — the simulator process serving the same REST
//!   interface with an ext3-era cost model (seek-heavy reads, journalled
//!   writes, one machine, no replication — which is exactly why the paper's
//!   comparison favours MyStore on availability and scale-out).

use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use mystore_core::message::{status, Method, Msg, RestResponse};
use mystore_net::{Context, NodeId, Process, TimerToken};
use mystore_ring::md5::{md5, to_hex};

/// A real directory-backed blob store with an in-memory index.
///
/// Files are spread over 256 hash buckets (`<root>/<2-hex>/<md5>.bin`) the
/// way people actually sharded directories on ext3 to dodge linear
/// directory scans. The index maps user keys to paths and is rebuilt by
/// scanning on open — the paper's point that "maintaining the index table
/// is a tough task" is faithfully present.
pub struct LocalFileStore {
    root: PathBuf,
    index: HashMap<String, PathBuf>,
}

impl LocalFileStore {
    /// Opens (creating if needed) a store rooted at `root`, rebuilding the
    /// index from the files present.
    pub fn open(root: impl AsRef<Path>) -> std::io::Result<Self> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        let mut index = HashMap::new();
        for bucket in fs::read_dir(&root)? {
            let bucket = bucket?;
            if !bucket.file_type()?.is_dir() {
                continue;
            }
            for entry in fs::read_dir(bucket.path())? {
                let entry = entry?;
                // The key is stored in a sidecar `.key` file (binary-safe
                // file names are not).
                let path = entry.path();
                if path.extension().and_then(|e| e.to_str()) == Some("key") {
                    let key = fs::read_to_string(&path)?;
                    index.insert(key, path.with_extension("bin"));
                }
            }
        }
        Ok(LocalFileStore { root, index })
    }

    fn paths_for(&self, key: &str) -> (PathBuf, PathBuf) {
        let digest = to_hex(&md5(key.as_bytes()));
        let dir = self.root.join(&digest[..2]);
        (dir.join(format!("{digest}.bin")), dir.join(format!("{digest}.key")))
    }

    /// Stores `value` under `key` (create or replace).
    pub fn put(&mut self, key: &str, value: &[u8]) -> std::io::Result<()> {
        let (bin, keyfile) = self.paths_for(key);
        fs::create_dir_all(bin.parent().expect("bucketed path"))?;
        let mut f = fs::File::create(&bin)?;
        f.write_all(value)?;
        fs::write(&keyfile, key)?;
        self.index.insert(key.to_string(), bin);
        Ok(())
    }

    /// Fetches the blob stored under `key`.
    pub fn get(&self, key: &str) -> std::io::Result<Option<Vec<u8>>> {
        match self.index.get(key) {
            Some(path) => Ok(Some(fs::read(path)?)),
            None => Ok(None),
        }
    }

    /// Deletes `key`; returns whether it existed.
    pub fn delete(&mut self, key: &str) -> std::io::Result<bool> {
        match self.index.remove(key) {
            Some(path) => {
                let _ = fs::remove_file(&path);
                let _ = fs::remove_file(path.with_extension("key"));
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Number of indexed blobs.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

/// ext3-era cost model (µs).
struct FsCost {
    /// Fixed read cost: directory lookup + seek (partially cached).
    read_base_us: u64,
    /// Read bandwidth in bytes/µs.
    read_bytes_per_us: f64,
    /// Fixed write cost: journal commit + metadata.
    write_base_us: u64,
    /// Write bandwidth in bytes/µs.
    write_bytes_per_us: f64,
}

/// A single 2009 SAS disk behind ext3: reads mostly page-cache assisted but
/// with cold misses amortized in, writes journalled.
const COST: FsCost = FsCost {
    read_base_us: 3_500,
    read_bytes_per_us: 90.0,
    write_base_us: 6_000,
    write_bytes_per_us: 40.0,
};

/// Simulator process: the ext3 store behind the same REST interface as
/// MyStore ("the three storage systems are all bounded to RESTful
/// interfaces", §6.1).
#[derive(Default)]
pub struct FsStoreNode {
    data: HashMap<String, mystore_core::message::Body>,
    served: u64,
}

impl FsStoreNode {
    /// Preloads a record without charging service time (corpus setup).
    pub fn preload(&mut self, key: impl Into<String>, value: Vec<u8>) {
        self.data.insert(key.into(), value.into());
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Records stored.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Process<Msg> for FsStoreNode {
    fn on_start(&mut self, _ctx: &mut Context<'_, Msg>) {}

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        let Msg::RestReq(r) = msg else { return };
        self.served += 1;
        let reply = |status_code: u16, body: mystore_core::message::Body| {
            Msg::RestResp(RestResponse {
                req: r.req,
                status: status_code,
                body,
                assigned_key: None,
                from_cache: false,
            })
        };
        let Some(key) = r.key.clone() else {
            ctx.send(from, reply(status::BAD_REQUEST, Default::default()));
            return;
        };
        match r.method {
            Method::Get => match self.data.get(&key) {
                Some(v) => {
                    ctx.consume(
                        COST.read_base_us + (v.len() as f64 / COST.read_bytes_per_us) as u64,
                    );
                    ctx.send(from, reply(status::OK, v.clone()));
                }
                None => {
                    ctx.consume(COST.read_base_us);
                    ctx.send(from, reply(status::NOT_FOUND, Default::default()));
                }
            },
            Method::Post => {
                ctx.consume(
                    COST.write_base_us + (r.body.len() as f64 / COST.write_bytes_per_us) as u64,
                );
                self.data.insert(key, r.body);
                ctx.send(from, reply(status::OK, Default::default()));
            }
            Method::Delete => {
                ctx.consume(COST.write_base_us);
                self.data.remove(&key);
                ctx.send(from, reply(status::OK, Default::default()));
            }
        }
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, _token: TimerToken) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mystore-fs-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn local_store_crud_and_reopen() {
        let dir = tempdir("crud");
        {
            let mut store = LocalFileStore::open(&dir).unwrap();
            store.put("scene/alpha", b"xml-a").unwrap();
            store.put("scene/beta", b"xml-b").unwrap();
            assert_eq!(store.get("scene/alpha").unwrap().unwrap(), b"xml-a");
            assert!(store.get("nope").unwrap().is_none());
            assert!(store.delete("scene/beta").unwrap());
            assert!(!store.delete("scene/beta").unwrap());
            assert_eq!(store.len(), 1);
        }
        // The index is rebuilt by scanning the directory tree.
        let store = LocalFileStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get("scene/alpha").unwrap().unwrap(), b"xml-a");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn local_store_overwrite() {
        let dir = tempdir("ow");
        let mut store = LocalFileStore::open(&dir).unwrap();
        store.put("k", b"v1").unwrap();
        store.put("k", b"v2-longer").unwrap();
        assert_eq!(store.get("k").unwrap().unwrap(), b"v2-longer");
        assert_eq!(store.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sim_node_serves_rest() {
        use mystore_core::message::RestRequest;
        use mystore_core::testing::Probe;
        use mystore_net::{NetConfig, NodeConfig, Sim, SimConfig};
        let mut sim: Sim<Msg> =
            Sim::new(SimConfig { net: NetConfig::instant(), faults: Default::default(), seed: 1 });
        let store = sim.add_node(FsStoreNode::default(), NodeConfig::default());
        let probe = sim.add_node(
            Probe::new(vec![
                (
                    10,
                    store,
                    Msg::RestReq(RestRequest {
                        req: 1,
                        method: Method::Post,
                        key: Some("k".into()),
                        body: b"blob".to_vec().into(),
                        if_match: None,
                        auth: None,
                    }),
                ),
                (
                    20_000,
                    store,
                    Msg::RestReq(RestRequest {
                        req: 2,
                        method: Method::Get,
                        key: Some("k".into()),
                        body: Default::default(),
                        if_match: None,
                        auth: None,
                    }),
                ),
                (
                    40_000,
                    store,
                    Msg::RestReq(RestRequest {
                        req: 3,
                        method: Method::Get,
                        key: None,
                        body: Default::default(),
                        if_match: None,
                        auth: None,
                    }),
                ),
            ]),
            NodeConfig::default(),
        );
        sim.start();
        sim.run_for(1_000_000);
        let p = sim.process::<Probe>(probe).unwrap();
        assert!(matches!(p.response_for(1), Some(Msg::RestResp(r)) if r.status == status::OK));
        assert!(
            matches!(p.response_for(2), Some(Msg::RestResp(r)) if r.status == status::OK && *r.body == b"blob")
        );
        assert!(
            matches!(p.response_for(3), Some(Msg::RestResp(r)) if r.status == status::BAD_REQUEST)
        );
    }
}
