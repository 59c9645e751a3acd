//! Offline stand-in for the `crossbeam` crate.
//!
//! Implements the one facility this workspace uses — a bounded blocking
//! channel ([`channel::bounded`]) with `len()` on the receiver and
//! disconnect-on-drop semantics on both endpoints — over
//! `std::sync::{Mutex, Condvar}`.

#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_types,
    reason = "the channel is built on std::sync::{Mutex, Condvar}"
)]

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

    struct State<T> {
        queue: VecDeque<T>,
        cap: usize,
        senders: usize,
        receivers: usize,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        not_full: Condvar,
        not_empty: Condvar,
    }

    impl<T> Inner<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            // a poisoned channel mutex means a peer thread panicked while
            // holding it; the queue state itself is still consistent
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Error returned by [`Sender::send`] when every receiver is gone;
    /// carries the unsent value back to the caller.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// The sending half of a bounded channel.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half of a bounded channel.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Creates a bounded channel holding at most `cap` in-flight messages.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` (rendezvous channels are not needed here).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(cap > 0, "bounded channel capacity must be positive");
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(cap),
                cap,
                senders: 1,
                receivers: 1,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Blocks until there is room, then enqueues `value`. Fails (and
        /// returns the value) once every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.inner.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                if st.queue.len() < st.cap {
                    st.queue.push_back(value);
                    drop(st);
                    self.inner.not_empty.notify_one();
                    return Ok(());
                }
                st = self
                    .inner
                    .not_full
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.lock().senders += 1;
            Self {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.inner.lock();
            st.senders -= 1;
            let last = st.senders == 0;
            drop(st);
            if last {
                self.inner.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks for the next message; fails once the channel is drained
        /// and every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.inner.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    drop(st);
                    self.inner.not_full.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self
                    .inner
                    .not_empty
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Number of messages currently buffered.
        pub fn len(&self) -> usize {
            self.inner.lock().queue.len()
        }

        /// Whether the buffer is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.lock().receivers += 1;
            Self {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.inner.lock();
            st.receivers -= 1;
            let last = st.receivers == 0;
            drop(st);
            if last {
                // unblock producers stuck on a full queue so they can
                // observe the disconnect and exit
                self.inner.not_full.notify_all();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;
        use std::time::Duration;

        #[test]
        fn fifo_roundtrip() {
            let (tx, rx) = bounded(4);
            for i in 0..4 {
                tx.send(i).expect("receiver alive");
            }
            assert_eq!(rx.len(), 4);
            for i in 0..4 {
                assert_eq!(rx.recv(), Ok(i));
            }
        }

        #[test]
        fn recv_fails_after_senders_gone() {
            let (tx, rx) = bounded::<u32>(2);
            tx.send(1).expect("receiver alive");
            drop(tx);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn blocked_sender_unblocks_on_receiver_drop() {
            let (tx, rx) = bounded(1);
            tx.send(0u8).expect("receiver alive");
            let h = thread::spawn(move || tx.send(1));
            thread::sleep(Duration::from_millis(20));
            drop(rx);
            assert_eq!(h.join().expect("sender thread"), Err(SendError(1)));
        }

        #[test]
        fn producer_consumer_across_threads() {
            let (tx, rx) = bounded(2);
            let h = thread::spawn(move || {
                for i in 0..100u64 {
                    if tx.send(i).is_err() {
                        return;
                    }
                }
            });
            let got: Vec<u64> = (0..100)
                .map(|_| rx.recv().expect("stream intact"))
                .collect();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
            h.join().expect("producer");
        }
    }
}
