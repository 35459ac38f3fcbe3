//! The threaded runtime's syncs ([`crate::process::Context::start_sync`]).
//!
//! A job with I/O to run goes to the node's syncer thread, spawned on the
//! first such job, which runs the jobs one at a time in start order and
//! posts each outcome into the node's own inbox; the node keeps serving
//! messages meanwhile and handles the outcome like a message, as a batch
//! item. A job with nothing to run (a memory log) completes inline, as a
//! batch of its own, before the node takes its next envelope — unless
//! syncer jobs are still outstanding, in which case it queues behind them
//! so completions keep their start order.
//!
//! A job started by a batch that sent messages lets them go first: the
//! syncer yields the CPU once before running it. Where cores are fewer
//! than runnable threads, the just-woken syncer would otherwise spend the
//! CPU on the sync's own work (writeback submission) ahead of the
//! transport threads those sends woke — a coordinator's own copy would
//! delay its fan-out, and a read answered in the same batch its reply
//! (DESIGN.md §9). A batch that sent nothing, such as a replica staging
//! a write whose ack waits for this very sync, starts its sync at once.
//!
//! Lock discipline (`lock-order` / `recv-under-lock`, DESIGN.md §15): the
//! syncer thread takes no lock, and its only blocking call is the `recv`
//! on its job queue, which nothing else reads.

use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};

use crate::process::{NodeId, SyncJob};

/// A job handed to the syncer, and whether the batch starting it sent
/// messages.
type Queued = (Option<SyncJob>, bool);

/// One node's syncs.
#[derive(Default)]
pub(crate) struct Syncs {
    /// The syncer thread and its job queue, once spawned.
    syncer: Option<(Sender<Queued>, JoinHandle<()>)>,
    /// Jobs handed to the syncer whose outcome has not arrived yet.
    outstanding: usize,
    /// Jobs with nothing to run, completed before the next envelope.
    inline: usize,
}

impl Syncs {
    /// Starts `job` for `node`; `after_sends` says whether the batch
    /// starting it sent messages. The syncer posts each outcome into the
    /// node's mailbox (`inbox`, asked for when the thread is spawned) as
    /// `done(ok)`.
    pub(crate) fn start<T: Send + 'static>(
        &mut self,
        job: Option<SyncJob>,
        after_sends: bool,
        node: NodeId,
        inbox: impl FnOnce() -> Sender<T>,
        done: fn(bool) -> T,
    ) {
        if job.is_none() && self.outstanding == 0 {
            self.inline += 1;
            return;
        }
        let (jobs, _) = self.syncer.get_or_insert_with(|| {
            let (jobs, queue) = unbounded::<Queued>();
            let inbox = inbox();
            let thread = std::thread::Builder::new()
                .name(format!("mystore-sync-{}", node.0))
                .spawn(move || {
                    while let Ok((job, after_sends)) = queue.recv() {
                        if after_sends {
                            std::thread::yield_now();
                        }
                        let ok = job.is_none_or(SyncJob::run);
                        if inbox.send(done(ok)).is_err() {
                            break; // the node thread is gone
                        }
                    }
                })
                .expect("spawn syncer thread");
            (jobs, thread)
        });
        // The thread only stops once `jobs` is dropped (in `join`) or the
        // node's mailbox is gone, so a failed send means nobody waits.
        let _ = jobs.send((job, after_sends));
        self.outstanding += 1;
    }

    /// The syncer's outcome for the oldest outstanding job arrived.
    pub(crate) fn arrived(&mut self) {
        self.outstanding -= 1;
    }

    /// Takes one pending inline completion, if any.
    pub(crate) fn take_inline(&mut self) -> bool {
        let any = self.inline > 0;
        self.inline -= usize::from(any);
        any
    }

    /// Stops the syncer thread after the jobs already queued and joins it.
    /// A panic inside a job is re-raised on the caller's thread.
    pub(crate) fn join(&mut self) {
        if let Some((jobs, thread)) = self.syncer.take() {
            drop(jobs);
            if let Err(panic) = thread.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}
