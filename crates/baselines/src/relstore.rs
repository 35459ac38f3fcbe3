//! The relational baseline: master-slave MySQL storing unstructured data as
//! BLOB rows (paper §1, second storage option; compared in Figs. 11–12).
//!
//! Captures the properties the paper attributes to it: full transactional
//! machinery on every statement (parse/plan/lock/log), a BLOB row per
//! object, a single write master with synchronous-ish binlog shipping to a
//! read slave, and *no horizontal scale-out* ("the relational database is
//! hard to make scale-out, for complex table designs and many join
//! operations").

use std::collections::BTreeMap;

use mystore_core::message::{status, Method, Msg, RestRequest, RestResponse};
use mystore_net::{Context, NodeId, Process, TimerToken};

/// Relational cost model (µs).
struct RelCost {
    /// SQL parse + plan + B-tree descent + row fetch.
    select_base_us: u64,
    /// BLOB streaming bandwidth on read (bytes/µs).
    read_bytes_per_us: f64,
    /// Transaction begin/commit + binlog + index maintenance per write.
    write_base_us: u64,
    /// BLOB write bandwidth (bytes/µs).
    write_bytes_per_us: f64,
    /// Extra serialization on writes: the master applies them one at a time
    /// (table/row locks); modelled by the node's single write server.
    replication_ship_us: u64,
}

const COST: RelCost = RelCost {
    select_base_us: 2_200,
    read_bytes_per_us: 110.0,
    write_base_us: 5_000,
    write_bytes_per_us: 35.0,
    replication_ship_us: 300,
};

/// Role of a node in the master-slave pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelRole {
    /// Accepts writes and reads; ships binlog rows to the slave.
    Master {
        /// The slave receiving the binlog, if any.
        slave: Option<NodeId>,
    },
    /// Read-only replica.
    Slave,
}

/// One MySQL-like node (master or slave) behind the REST interface.
pub struct RelStoreNode {
    role: RelRole,
    /// The BLOB table: `obj_key (PK) → blob`.
    table: BTreeMap<String, mystore_core::message::Body>,
    writes: u64,
    reads: u64,
}

impl RelStoreNode {
    /// Creates a node with the given role.
    pub fn new(role: RelRole) -> Self {
        RelStoreNode { role, table: BTreeMap::new(), writes: 0, reads: 0 }
    }

    /// Preloads a row without charging service time.
    pub fn preload(&mut self, key: impl Into<String>, value: Vec<u8>) {
        self.table.insert(key.into(), value.into());
    }

    /// Rows in the table.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// `(reads, writes)` served.
    pub fn counters(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }
}

impl Process<Msg> for RelStoreNode {
    fn on_start(&mut self, _ctx: &mut Context<'_, Msg>) {}

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            // Binlog row from the master.
            Msg::CachePut { key, value } if self.role == RelRole::Slave => {
                ctx.consume(COST.write_base_us / 2);
                self.table.insert(key, value);
            }
            Msg::CacheDel { key } if self.role == RelRole::Slave => {
                self.table.remove(&key);
            }
            Msg::RestReq(r) => self.serve_rest(ctx, from, r),
            _ => {}
        }
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, _token: TimerToken) {}
}

impl RelStoreNode {
    fn serve_rest(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, r: RestRequest) {
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
            Method::Get => {
                self.reads += 1;
                match self.table.get(&key) {
                    Some(v) => {
                        ctx.consume(
                            COST.select_base_us + (v.len() as f64 / COST.read_bytes_per_us) as u64,
                        );
                        ctx.send(from, reply(status::OK, v.clone()));
                    }
                    None => {
                        ctx.consume(COST.select_base_us);
                        ctx.send(from, reply(status::NOT_FOUND, Default::default()));
                    }
                }
            }
            Method::Post | Method::Delete => {
                // Writes only on the master.
                let RelRole::Master { slave } = self.role else {
                    ctx.send(from, reply(status::STORAGE_ERROR, Default::default()));
                    return;
                };
                self.writes += 1;
                ctx.consume(
                    COST.write_base_us
                        + (r.body.len() as f64 / COST.write_bytes_per_us) as u64
                        + COST.replication_ship_us,
                );
                if r.method == Method::Post {
                    self.table.insert(key.clone(), r.body.clone());
                    if let Some(slave) = slave {
                        ctx.send(slave, Msg::CachePut { key, value: r.body });
                    }
                } else {
                    self.table.remove(&key);
                    if let Some(slave) = slave {
                        ctx.send(slave, Msg::CacheDel { key });
                    }
                }
                ctx.send(from, reply(status::OK, Default::default()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mystore_core::testing::Probe;
    use mystore_net::{NetConfig, NodeConfig, Sim, SimConfig, SimTime};

    fn rest(req: u64, method: Method, key: &str, body: &[u8]) -> Msg {
        Msg::RestReq(RestRequest {
            req,
            method,
            key: Some(key.into()),
            body: body.to_vec().into(),
            if_match: None,
            auth: None,
        })
    }

    #[test]
    fn master_writes_replicate_to_slave() {
        let mut sim: Sim<Msg> =
            Sim::new(SimConfig { net: NetConfig::instant(), faults: Default::default(), seed: 1 });
        let slave = sim.add_node(RelStoreNode::new(RelRole::Slave), NodeConfig::default());
        let master = sim.add_node(
            RelStoreNode::new(RelRole::Master { slave: Some(slave) }),
            NodeConfig::default(),
        );
        let probe = sim.add_node(
            Probe::new(vec![
                (10, master, rest(1, Method::Post, "row1", b"blob")),
                (100_000, slave, rest(2, Method::Get, "row1", b"")),
                (200_000, slave, rest(3, Method::Post, "row2", b"nope")),
                (300_000, master, rest(4, Method::Delete, "row1", b"")),
            ]),
            NodeConfig::default(),
        );
        sim.start();
        sim.run_until(SimTime::from_secs(2));
        let p = sim.process::<Probe>(probe).unwrap();
        assert!(matches!(p.response_for(1), Some(Msg::RestResp(r)) if r.status == status::OK));
        assert!(
            matches!(p.response_for(2), Some(Msg::RestResp(r)) if r.status == status::OK && *r.body == b"blob"),
            "slave must serve the replicated row"
        );
        assert!(
            matches!(p.response_for(3), Some(Msg::RestResp(r)) if r.status == status::STORAGE_ERROR),
            "slave must reject writes"
        );
        assert!(matches!(p.response_for(4), Some(Msg::RestResp(r)) if r.status == status::OK));
        // Deletion propagates.
        sim.run_for(100_000);
        assert!(sim.process::<RelStoreNode>(slave).unwrap().is_empty());
    }

    #[test]
    fn preload_and_counters() {
        let mut node = RelStoreNode::new(RelRole::Slave);
        node.preload("a", vec![1]);
        assert_eq!(node.len(), 1);
        assert_eq!(node.counters(), (0, 0));
    }
}
