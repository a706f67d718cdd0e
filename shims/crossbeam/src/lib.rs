//! Offline stand-in for `crossbeam`.
//!
//! Provides the `crossbeam::channel` MPMC channel subset this workspace
//! uses: `bounded`/`unbounded` constructors, cloneable `Sender`/`Receiver`,
//! blocking/timeout/non-blocking receive, and non-blocking send with
//! `Full`/`Disconnected` discrimination. Built on a mutex + two condvars;
//! throughput is adequate for the per-connection control queues it backs.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        /// `None` = unbounded.
        cap: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// Sending half of a channel. Cloneable; the channel disconnects when
    /// all senders are dropped.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// Receiving half of a channel. Cloneable; the channel disconnects
    /// when all receivers are dropped.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Error for [`Sender::send`]: the message comes back.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error for [`Sender::try_send`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is at capacity.
        Full(T),
        /// All receivers are gone.
        Disconnected(T),
    }

    /// Error for [`Receiver::recv`]: channel empty and disconnected.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error for [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message ready.
        Empty,
        /// All senders are gone and the queue is drained.
        Disconnected,
    }

    /// Error for [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with no message.
        Timeout,
        /// All senders are gone and the queue is drained.
        Disconnected,
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }
    impl std::error::Error for RecvError {}

    /// Channel with a fixed capacity. `try_send` fails `Full` beyond it.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        new_chan(Some(cap))
    }

    /// Channel without a capacity bound.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_chan(None)
    }

    fn new_chan<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            cap,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                chan: Arc::clone(&chan),
            },
            Receiver { chan },
        )
    }

    impl<T> Chan<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }

        fn full(&self, st: &State<T>) -> bool {
            self.cap.is_some_and(|c| st.queue.len() >= c)
        }
    }

    impl<T> Sender<T> {
        /// Send, blocking while the channel is full.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.chan.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                if !self.chan.full(&st) {
                    st.queue.push_back(msg);
                    self.chan.not_empty.notify_one();
                    return Ok(());
                }
                st = self
                    .chan
                    .not_full
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Send without blocking.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut st = self.chan.lock();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if self.chan.full(&st) {
                return Err(TrySendError::Full(msg));
            }
            st.queue.push_back(msg);
            self.chan.not_empty.notify_one();
            Ok(())
        }

        /// Number of queued messages.
        pub fn len(&self) -> usize {
            self.chan.lock().queue.len()
        }

        /// Whether the queue is empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Whether a bounded queue is at capacity.
        pub fn is_full(&self) -> bool {
            self.chan.full(&self.chan.lock())
        }
    }

    impl<T> Receiver<T> {
        /// Receive, blocking until a message or disconnection.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.chan.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    self.chan.not_full.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self
                    .chan
                    .not_empty
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Receive without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.chan.lock();
            if let Some(v) = st.queue.pop_front() {
                self.chan.not_full.notify_one();
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        /// Receive, blocking at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.chan.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    self.chan.not_full.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (g, _res) = self
                    .chan
                    .not_empty
                    .wait_timeout(st, left)
                    .unwrap_or_else(|e| e.into_inner());
                st = g;
            }
        }

        /// Number of queued messages.
        pub fn len(&self) -> usize {
            self.chan.lock().queue.len()
        }

        /// Whether the queue is empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.chan.lock().senders += 1;
            Sender {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.chan.lock().receivers += 1;
            Receiver {
                chan: Arc::clone(&self.chan),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.chan.lock();
            st.senders -= 1;
            if st.senders == 0 {
                // Wake readers so they observe the disconnection.
                self.chan.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.chan.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                self.chan.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }
    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn bounded_try_send_reports_full_then_drains() {
            let (tx, rx) = bounded(2);
            tx.try_send(1).unwrap();
            tx.try_send(2).unwrap();
            assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
            assert_eq!(rx.recv().unwrap(), 1);
            tx.try_send(3).unwrap();
            assert_eq!(rx.recv().unwrap(), 2);
            assert_eq!(rx.recv().unwrap(), 3);
        }

        #[test]
        fn recv_timeout_times_out_then_disconnects() {
            let (tx, rx) = bounded::<u32>(1);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(20)),
                Err(RecvTimeoutError::Timeout)
            );
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(20)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn cross_thread_delivery() {
            let (tx, rx) = bounded(16);
            let t = std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let mut got = Vec::new();
            for _ in 0..100 {
                got.push(rx.recv_timeout(Duration::from_secs(5)).unwrap());
            }
            t.join().unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        }

        #[test]
        fn send_to_dropped_receiver_errors() {
            let (tx, rx) = bounded(1);
            drop(rx);
            assert_eq!(tx.send(9), Err(SendError(9)));
            assert_eq!(tx.try_send(9), Err(TrySendError::Disconnected(9)));
        }
    }
}
