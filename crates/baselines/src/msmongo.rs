//! Master/slave MongoDB mode — the storage-module baseline of Fig. 17.
//!
//! "Here, MongoDB is configured to be master-slave mode using three physical
//! nodes" (§6.2.3). The master applies every Put locally and ships it
//! asynchronously to the slaves; there is no quorum, no hinted handoff, and
//! no automatic failover — so a master breakdown stalls all writes, and a
//! lost request is only recovered by client retry. That availability gap is
//! precisely what Fig. 17 measures.

use mystore_bson::ObjectId;
use mystore_core::config::COST;
use mystore_core::message::{Msg, StoreError};
use mystore_engine::{pack_version, Db, Record};
use mystore_net::{Context, NodeId, OpFault, Process, TimerToken};

/// Role in the master/slave replica set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsRole {
    /// Applies writes, ships them to the slaves.
    Master {
        /// Replication targets.
        slaves: Vec<NodeId>,
    },
    /// Applies the master's stream; serves reads.
    Slave,
}

/// One node of the master/slave MongoDB deployment, speaking the same
/// storage-module `Get`/`Put` interface as a MyStore coordinator.
pub struct MsMongoNode {
    role: MsRole,
    db: Db,
    puts: u64,
}

impl MsMongoNode {
    /// Creates a node.
    pub fn new(role: MsRole) -> Self {
        MsMongoNode { role, db: Db::memory(), puts: 0 }
    }

    /// Puts applied on this node.
    pub fn puts(&self) -> u64 {
        self.puts
    }

    /// Records stored locally.
    pub fn record_count(&self) -> usize {
        self.db.collection("data").map(|c| c.len()).unwrap_or(0)
    }

    /// Read access to the local database.
    pub fn db(&self) -> &Db {
        &self.db
    }
}

impl Process<Msg> for MsMongoNode {
    fn on_start(&mut self, _ctx: &mut Context<'_, Msg>) {}

    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
        let fault = ctx.take_op_fault();
        match msg {
            Msg::Put { req, key, value, delete } => {
                // Only the master takes writes; a slave receiving one
                // simply fails it (no redirect, no failover — the paper's
                // availability complaint about master/slave MongoDB).
                let MsRole::Master { slaves } = self.role.clone() else {
                    ctx.send(
                        from,
                        Msg::PutResp { req, result: Err(StoreError::QuorumWriteFailed) },
                    );
                    return;
                };
                match fault {
                    Some(OpFault::NetworkException) => return, // lost; client retries
                    Some(OpFault::DiskIoError) => {
                        ctx.send(
                            from,
                            Msg::PutResp { req, result: Err(StoreError::QuorumWriteFailed) },
                        );
                        return;
                    }
                    _ => {}
                }
                let version = pack_version(ctx.now().as_micros(), 0);
                let record = if delete {
                    Record::tombstone(ObjectId::new(), key, version)
                } else {
                    let owned = std::sync::Arc::try_unwrap(value)
                        .unwrap_or_else(|shared| (*shared).clone());
                    Record::new(ObjectId::new(), key, owned, version)
                };
                ctx.consume(COST.put_us(record.val.len()));
                self.puts += 1;
                let ok = self.db.put_record("data", &record).is_ok();
                // Asynchronous replication: ship and forget.
                let record = std::sync::Arc::new(record);
                for slave in slaves {
                    ctx.send(slave, Msg::StoreReplica { req: 0, record: record.clone() });
                }
                let result = if ok { Ok(()) } else { Err(StoreError::QuorumWriteFailed) };
                ctx.send(from, Msg::PutResp { req, result });
            }
            Msg::Get { req, key } => {
                match fault {
                    Some(OpFault::NetworkException) => return,
                    Some(OpFault::DiskIoError) => {
                        ctx.send(
                            from,
                            Msg::GetResp { req, result: Err(StoreError::QuorumReadFailed) },
                        );
                        return;
                    }
                    _ => {}
                }
                let found = self.db.get_record("data", &key).ok().flatten();
                ctx.consume(COST.get_us(found.as_ref().map(|r| r.val.len()).unwrap_or(0)));
                let result = match found {
                    Some(r) if !r.is_del => Ok(Some(std::sync::Arc::new(r.val))),
                    _ => Ok(None),
                };
                ctx.send(from, Msg::GetResp { req, result });
            }
            Msg::StoreReplica { record, .. } => {
                // Replication stream apply (slaves).
                if matches!(self.role, MsRole::Slave) {
                    ctx.consume(COST.put_us(record.val.len()));
                    self.puts += 1;
                    let _ = self.db.put_record("data", &record);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, _token: TimerToken) {}
}

/// Builds the Fig. 17 three-node master/slave deployment on a simulator:
/// returns `(master, slaves)` ids. Nodes are added in slave, slave, master
/// order.
pub fn add_msmongo_trio(
    sim: &mut mystore_net::Sim<Msg>,
    concurrency: usize,
) -> (NodeId, Vec<NodeId>) {
    use mystore_net::NodeConfig;
    let s1 = sim.add_node(MsMongoNode::new(MsRole::Slave), NodeConfig { concurrency });
    let s2 = sim.add_node(MsMongoNode::new(MsRole::Slave), NodeConfig { concurrency });
    let master = sim.add_node(
        MsMongoNode::new(MsRole::Master { slaves: vec![s1, s2] }),
        NodeConfig { concurrency },
    );
    (master, vec![s1, s2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mystore_core::testing::Probe;
    use mystore_net::{NetConfig, NodeConfig, Sim, SimConfig, SimTime};

    fn build(
        seed: u64,
        script: Vec<(u64, NodeId, Msg)>,
    ) -> (Sim<Msg>, NodeId, Vec<NodeId>, NodeId) {
        let mut sim: Sim<Msg> =
            Sim::new(SimConfig { net: NetConfig::gigabit_lan(), faults: Default::default(), seed });
        let (master, slaves) = add_msmongo_trio(&mut sim, 4);
        let probe = sim.add_node(Probe::new(script), NodeConfig::default());
        sim.start();
        (sim, master, slaves, probe)
    }

    #[test]
    fn writes_apply_on_master_and_replicate() {
        let script = vec![(
            1_000,
            NodeId(2), // master
            Msg::Put { req: 1, key: "k".into(), value: b"v".to_vec().into(), delete: false },
        )];
        let (mut sim, master, slaves, probe) = build(1, script);
        sim.run_until(SimTime::from_secs(2));
        let p = sim.process::<Probe>(probe).unwrap();
        assert!(matches!(p.response_for(1), Some(Msg::PutResp { result: Ok(()), .. })));
        assert_eq!(sim.process::<MsMongoNode>(master).unwrap().record_count(), 1);
        for s in slaves {
            assert_eq!(sim.process::<MsMongoNode>(s).unwrap().record_count(), 1);
        }
    }

    #[test]
    fn slave_rejects_writes_and_serves_reads() {
        let script = vec![
            (
                1_000,
                NodeId(2),
                Msg::Put { req: 1, key: "k".into(), value: b"v".to_vec().into(), delete: false },
            ),
            (
                500_000,
                NodeId(0),
                Msg::Put { req: 2, key: "x".into(), value: b"v".to_vec().into(), delete: false },
            ),
            (600_000, NodeId(0), Msg::Get { req: 3, key: "k".into() }),
        ];
        let (mut sim, _, _, probe) = build(2, script);
        sim.run_until(SimTime::from_secs(2));
        let p = sim.process::<Probe>(probe).unwrap();
        assert!(matches!(p.response_for(2), Some(Msg::PutResp { result: Err(_), .. })));
        assert!(matches!(p.response_for(3), Some(Msg::GetResp { result: Ok(Some(_)), .. })));
    }

    #[test]
    fn master_breakdown_stalls_all_writes() {
        let script = vec![
            (
                1_000,
                NodeId(2),
                Msg::Put { req: 1, key: "a".into(), value: vec![1].into(), delete: false },
            ),
            (
                2_000_000,
                NodeId(2),
                Msg::Put { req: 2, key: "b".into(), value: vec![2].into(), delete: false },
            ),
        ];
        let (mut sim, master, _, probe) = build(3, script);
        sim.schedule_crash(SimTime(1_000_000), master, None);
        sim.run_until(SimTime::from_secs(5));
        let p = sim.process::<Probe>(probe).unwrap();
        assert!(matches!(p.response_for(1), Some(Msg::PutResp { result: Ok(()), .. })));
        assert!(p.response_for(2).is_none(), "no failover: the write is simply lost");
    }
}
