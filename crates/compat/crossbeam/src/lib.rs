//! Offline drop-in subset of `crossbeam`: an unbounded MPMC channel.
//!
//! The build container has no crates.io access, so the channel API the
//! workspace uses (`crossbeam::channel::{unbounded, Sender, Receiver,
//! RecvTimeoutError}`) is implemented here over a `Mutex<VecDeque>` plus a
//! `Condvar`. Both ends are cloneable, matching crossbeam semantics.

#![forbid(unsafe_code)]

/// MPMC channels, mirroring `crossbeam::channel`.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<Inner<T>>,
        cond: Condvar,
    }

    struct Inner<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived before the deadline.
        Timeout,
        /// All senders dropped and the queue is drained.
        Disconnected,
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// All senders dropped and the queue is drained.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// The sending half of an unbounded channel. Cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of an unbounded channel. Cloneable (MPMC).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Inner { items: VecDeque::new(), senders: 1, receivers: 1 }),
            cond: Condvar::new(),
        });
        (Sender { shared: shared.clone() }, Receiver { shared })
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.queue.lock().unwrap().senders += 1;
            Sender { shared: self.shared.clone() }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut q = self.shared.queue.lock().unwrap();
            q.senders -= 1;
            if q.senders == 0 {
                drop(q);
                self.shared.cond.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.queue.lock().unwrap().receivers += 1;
            Receiver { shared: self.shared.clone() }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.queue.lock().unwrap().receivers -= 1;
        }
    }

    impl<T> Sender<T> {
        /// Enqueues `value`; fails only when every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut q = self.shared.queue.lock().unwrap();
            if q.receivers == 0 {
                return Err(SendError(value));
            }
            q.items.push_back(value);
            drop(q);
            self.shared.cond.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.shared.queue.lock().unwrap();
            loop {
                if let Some(v) = q.items.pop_front() {
                    return Ok(v);
                }
                if q.senders == 0 {
                    return Err(RecvError);
                }
                q = self.shared.cond.wait(q).unwrap();
            }
        }

        /// Blocks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut q = self.shared.queue.lock().unwrap();
            loop {
                if let Some(v) = q.items.pop_front() {
                    return Ok(v);
                }
                if q.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, res) = self.shared.cond.wait_timeout(q, deadline - now).unwrap();
                q = guard;
                if res.timed_out() && q.items.is_empty() {
                    if q.senders == 0 {
                        return Err(RecvTimeoutError::Disconnected);
                    }
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.shared.queue.lock().unwrap().items.len()
        }

        /// True when no message is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.shared.queue.lock().unwrap();
            if let Some(v) = q.items.pop_front() {
                Ok(v)
            } else if q.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn send_recv_across_threads() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        std::thread::spawn(move || tx2.send(7).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)), Ok(7));
    }

    #[test]
    fn timeout_when_empty() {
        let (_tx, rx) = unbounded::<u32>();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Err(RecvTimeoutError::Timeout));
    }

    #[test]
    fn disconnect_after_drain() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(1));
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn len_counts_queued_messages() {
        let (tx, rx) = unbounded::<u32>();
        assert!(rx.is_empty());
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        rx.try_recv().unwrap();
        assert_eq!(rx.len(), 1);
    }

    #[test]
    fn mpmc_clone_receivers() {
        let (tx, rx) = unbounded::<u32>();
        let rx2 = rx.clone();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let a = rx.recv().unwrap();
        let b = rx2.recv().unwrap();
        let mut got = vec![a, b];
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }
}
