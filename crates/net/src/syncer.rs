//! The threaded runtime's syncs ([`crate::process::Context::start_sync`]).
//!
//! A job with I/O to run goes to its process's syncer thread, spawned on
//! the first such job, which runs the jobs one at a time in start order
//! and posts each outcome, tagged with the process's id, into the host
//! loop's inbox; the loop keeps serving messages meanwhile and handles the
//! outcome like a message, as a batch item. A job with nothing to run (a
//! memory log) completes inline, as a batch of its own, before the loop
//! takes its next batch — unless syncer jobs are still outstanding, in
//! which case it queues behind them so completions keep their start order.
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
//! Lock discipline (DESIGN.md §12): the syncer thread takes no lock, and
//! its only blocking call is the `recv` on its job queue, which nothing
//! else reads.

use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};

use crate::process::{NodeId, SyncJob};

/// A job handed to the syncer, and whether the batch starting it sent
/// messages.
type Queued = (Option<SyncJob>, bool);

/// One process's syncs.
#[derive(Default)]
pub(crate) struct Syncs {
    /// The syncer thread and its job queue, once spawned.
    syncer: Option<(Sender<Queued>, JoinHandle<()>)>,
    /// Jobs handed to the syncer whose outcome has not arrived yet.
    outstanding: usize,
    /// Jobs with nothing to run, completed before the next batch.
    inline: usize,
}

impl Syncs {
    /// Starts `job` for `node`; `after_sends` says whether the batch
    /// starting it sent messages. The syncer posts each outcome into the
    /// loop's `inbox` as `done(ok)`.
    pub(crate) fn start<T: Send + 'static>(
        &mut self,
        job: Option<SyncJob>,
        after_sends: bool,
        node: NodeId,
        inbox: &Sender<T>,
        done: impl Fn(bool) -> T + Send + 'static,
    ) {
        if job.is_none() && self.outstanding == 0 {
            self.inline += 1;
            return;
        }
        let (jobs, _) = self.syncer.get_or_insert_with(|| {
            let (jobs, queue) = unbounded::<Queued>();
            let inbox = inbox.clone();
            let thread = std::thread::Builder::new()
                .name(format!("mystore-sync-{}", node.0))
                .spawn(move || {
                    while let Ok((job, after_sends)) = queue.recv() {
                        if after_sends {
                            std::thread::yield_now();
                        }
                        let ok = job.is_none_or(SyncJob::run);
                        if inbox.send(done(ok)).is_err() {
                            break; // the host loop is gone
                        }
                    }
                })
                .expect("spawn syncer thread");
            (jobs, thread)
        });
        // The thread only stops once `jobs` is dropped (in `stop`) or the
        // loop's inbox is gone, so a failed send means nobody waits.
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

    /// Lets the syncer thread stop after the jobs already queued, and
    /// returns it for the caller to join.
    pub(crate) fn stop(self) -> Option<JoinHandle<()>> {
        self.syncer.map(|(_jobs, thread)| thread)
    }
}
