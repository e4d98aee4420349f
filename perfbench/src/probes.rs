//! Measuring wrappers around the program's own extension points: a
//! [`Transport`] that times every call into the fabric it wraps, and a
//! [`FabricTask`] that times every poll of the task it wraps. Both
//! forward each call unchanged, so outcomes and traffic are the same
//! bit for bit as without them.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use pem_fabric::{FabricTask, Poll};
use pem_net::{Envelope, NetError, NetStats, PartyId, Transport};

/// What a [`TimingTransport`] saw over one window.
#[derive(Debug, Clone, Default)]
pub struct NetProbe {
    /// Messages and payload bytes per label, counted at the call site.
    pub labels: BTreeMap<&'static str, (u64, u64)>,
    /// Time spent inside `send` and `broadcast`.
    pub send_busy: Duration,
    /// Time spent inside `recv`, `recv_expect` and `recv_deadline`.
    pub recv_busy: Duration,
    /// Largest number of sent-but-unconsumed messages seen after a send.
    pub peak_pending: usize,
    /// The fabric's critical-path virtual clock at the end, µs.
    pub critical_path_us: u64,
}

impl NetProbe {
    /// Checks the call-site label counts against the fabric's own
    /// traffic statistics.
    pub fn matches(&self, stats: &NetStats) -> bool {
        stats.per_label.len() == self.labels.len()
            && stats
                .per_label
                .iter()
                .all(|(label, s)| self.labels.get(label.as_str()) == Some(&(s.messages, s.bytes)))
    }
}

/// A [`Transport`] that records per-label traffic, busy time and queue
/// depth of the fabric it wraps.
pub struct TimingTransport<T> {
    inner: T,
    probe: NetProbe,
}

impl<T: Transport> TimingTransport<T> {
    /// Wraps a fresh fabric.
    pub fn new(inner: T) -> TimingTransport<T> {
        TimingTransport {
            inner,
            probe: NetProbe::default(),
        }
    }

    /// Ends the window: the probe, with the final critical path.
    pub fn finish(mut self) -> NetProbe {
        self.probe.critical_path_us = self.inner.now_us();
        self.probe
    }

    fn sent(&mut self, label: &'static str, copies: u64, len: usize) {
        let entry = self.probe.labels.entry(label).or_default();
        entry.0 += copies;
        entry.1 += copies * len as u64;
        self.probe.peak_pending = self.probe.peak_pending.max(self.inner.pending());
    }

    fn timed_recv<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        let start = Instant::now();
        let out = f(&mut self.inner);
        self.probe.recv_busy += start.elapsed();
        out
    }
}

impl<T: Transport> Transport for TimingTransport<T> {
    fn party_count(&self) -> usize {
        self.inner.party_count()
    }

    fn send(
        &mut self,
        from: PartyId,
        to: PartyId,
        label: &'static str,
        payload: Vec<u8>,
    ) -> Result<(), NetError> {
        let len = payload.len();
        let start = Instant::now();
        let out = self.inner.send(from, to, label, payload);
        self.probe.send_busy += start.elapsed();
        if out.is_ok() {
            self.sent(label, 1, len);
        }
        out
    }

    fn recv(&mut self, to: PartyId) -> Option<Envelope> {
        self.timed_recv(|net| net.recv(to))
    }

    fn recv_expect(&mut self, to: PartyId, label: &'static str) -> Result<Envelope, NetError> {
        self.timed_recv(|net| net.recv_expect(to, label))
    }

    fn recv_deadline(
        &mut self,
        to: PartyId,
        label: &'static str,
        deadline_us: u64,
    ) -> Result<Envelope, NetError> {
        self.timed_recv(|net| net.recv_deadline(to, label, deadline_us))
    }

    fn broadcast(
        &mut self,
        from: PartyId,
        label: &'static str,
        payload: &[u8],
    ) -> Result<(), NetError> {
        let start = Instant::now();
        let out = self.inner.broadcast(from, label, payload);
        self.probe.send_busy += start.elapsed();
        if out.is_ok() {
            let copies = self.inner.party_count().saturating_sub(1) as u64;
            self.sent(label, copies, payload.len());
        }
        out
    }

    fn stats(&self) -> NetStats {
        self.inner.stats()
    }

    fn traffic_totals(&self) -> (u64, u64) {
        self.inner.traffic_totals()
    }

    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }

    fn fabric_id(&self) -> u64 {
        self.inner.fabric_id()
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }
}

/// A [`FabricTask`] that records the duration of every poll of the task
/// it wraps; the durations come back with the task's output.
pub struct TimedTask<T> {
    inner: T,
    polls: Vec<Duration>,
}

impl<T> TimedTask<T> {
    /// Wraps a task before it is handed to an executor.
    pub fn new(inner: T) -> TimedTask<T> {
        TimedTask {
            inner,
            polls: Vec::new(),
        }
    }
}

impl<T: FabricTask> FabricTask for TimedTask<T> {
    type Output = (T::Output, Vec<Duration>);
    type Error = T::Error;

    fn poll(&mut self) -> Result<Poll<Self::Output>, Self::Error> {
        let start = Instant::now();
        let out = self.inner.poll();
        self.polls.push(start.elapsed());
        Ok(match out? {
            Poll::Pending => Poll::Pending,
            Poll::Ready(output) => Poll::Ready((output, std::mem::take(&mut self.polls))),
        })
    }

    fn is_ready(&self) -> bool {
        self.inner.is_ready()
    }
}
