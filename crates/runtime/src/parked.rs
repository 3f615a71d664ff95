//! Blocking requests from peer address spaces, parked instead of
//! threaded.
//!
//! A peer's blocking `get`/`put` on a container hosted here, or a
//! blocking name lookup at the name server ([`ShimPlan::Park`]), is not
//! given a thread. It becomes a [`ParkedRequest`]: a `std::task::Wake`
//! whose waker sits in the container's (or name server's)
//! [`dstampede_core::WakerSet`]. Whichever thread makes progress possible
//! — a local putter, the CLF receive thread running another peer's put,
//! a disconnect, a close — wakes it, and the wake itself retries the
//! request as a `NonBlocking` attempt and sends the reply. `TimeoutMs`
//! deadlines sit on the address space's [`RequestTimers`], a
//! [`TimerWheel`] the CLF receive loop advances.
//!
//! Invariants:
//! - attempts of one request never overlap: a wake during an attempt
//!   only asks the running thread to retry once more;
//! - at most one attempt succeeds and exactly one reply is sent, unless
//!   the request is cancelled first (shutdown, or its peer declared
//!   dead), in which case none is.
//!
//! [`ShimPlan::Park`]: crate::exec::ShimPlan::Park

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Wake, Waker};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dstampede_core::{AsId, StmError};
use dstampede_obs::{trace, TraceContext};
use dstampede_wire::{Reply, Request};

use crate::addrspace::{send_reply, AddressSpace};
use crate::exec::{execute, register_parked_waker, reply_would_block, rewrite_nonblocking};
use crate::reactor::{TimerId, TimerWheel};

/// An address space's `TimeoutMs` deadlines for parked requests, on a
/// wheel ticking in milliseconds since the address space started.
///
/// Only the owning address space schedules and cancels; only the CLF
/// receive loop advances ([`RequestTimers::advance`]), bounding its own
/// wait by the returned hint, so no thread exists just to keep time.
pub(crate) struct RequestTimers {
    epoch: Instant,
    wheel: Mutex<TimerWheel>,
    /// Live entries, readable without the lock: an idle wheel costs the
    /// receive loop one atomic load per pass.
    live: AtomicUsize,
}

impl RequestTimers {
    pub(crate) fn new() -> RequestTimers {
        RequestTimers {
            epoch: Instant::now(),
            wheel: Mutex::new(TimerWheel::new(0)),
            live: AtomicUsize::new(0),
        }
    }

    /// The last whole tick at or before `at`.
    fn tick_at(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_millis()).unwrap_or(u64::MAX)
    }

    fn schedule(&self, deadline: Instant, waker: Waker) -> TimerId {
        let mut wheel = self.wheel.lock();
        // Catch an idle wheel up first (a jump when empty), so the entry
        // is filed relative to the present.
        let fired = wheel.advance(self.tick_at(Instant::now()));
        // Rounded up: a deadline never fires early.
        let id = wheel.schedule(self.tick_at(deadline) + 1, waker);
        self.live.store(wheel.len(), Ordering::Release);
        drop(wheel);
        for (_, w) in fired {
            w.wake();
        }
        id
    }

    fn cancel(&self, id: TimerId) {
        let mut wheel = self.wheel.lock();
        wheel.cancel(id);
        self.live.store(wheel.len(), Ordering::Release);
    }

    /// Fires every due deadline (outside the wheel lock: the wakes retry
    /// requests, which cancel timers) and returns how long until the
    /// next one, `None` when nothing is scheduled.
    pub(crate) fn advance(&self) -> Option<Duration> {
        if self.live.load(Ordering::Acquire) == 0 {
            return None;
        }
        let (fired, next) = {
            let mut wheel = self.wheel.lock();
            let fired = wheel.advance(self.tick_at(Instant::now()));
            self.live.store(wheel.len(), Ordering::Release);
            (fired, wheel.next_deadline_hint())
        };
        for (_, w) in fired {
            w.wake();
        }
        next.map(|tick| {
            (self.epoch + Duration::from_millis(tick)).saturating_duration_since(Instant::now())
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    /// Parked: the next wake runs an attempt.
    Idle,
    /// An attempt is running on some thread.
    Running,
    /// An attempt is running and a wake arrived meanwhile: retry once
    /// more before parking.
    Rerun,
    /// Answered or cancelled; later wakes are no-ops.
    Done,
}

/// One parked blocking request from a peer.
pub(crate) struct ParkedRequest {
    space: Weak<AddressSpace>,
    key: u64,
    from: AsId,
    seq: u64,
    req: Request,
    /// `req` with its wait rewritten to `NonBlocking`.
    attempt: Request,
    trace: Option<TraceContext>,
    deadline: Option<Instant>,
    timer: Mutex<Option<TimerId>>,
    run: Mutex<RunState>,
}

impl ParkedRequest {
    /// Parks `req` from `from` in `space` and runs its first attempt on
    /// the calling (receive) thread.
    pub(crate) fn start(
        space: &Arc<AddressSpace>,
        from: AsId,
        seq: u64,
        req: Request,
        trace: Option<TraceContext>,
        timeout: Option<Duration>,
    ) {
        let parked = Arc::new(ParkedRequest {
            space: Arc::downgrade(space),
            key: space.next_park_key(),
            from,
            seq,
            attempt: rewrite_nonblocking(&req),
            req,
            trace,
            deadline: timeout.map(|d| Instant::now() + d),
            timer: Mutex::new(None),
            run: Mutex::new(RunState::Idle),
        });
        space.track_parked(parked.key, Arc::clone(&parked));
        if let Some(deadline) = parked.deadline {
            let id = space
                .request_timers()
                .schedule(deadline, Waker::from(Arc::clone(&parked)));
            *parked.timer.lock() = Some(id);
        }
        parked.poll();
    }

    /// The peer the request came from.
    pub(crate) fn origin(&self) -> AsId {
        self.from
    }

    /// Retires the request without a reply (shutdown, or its peer died).
    /// An attempt already running finishes but sends nothing.
    pub(crate) fn cancel(&self, space: &AddressSpace) {
        *self.run.lock() = RunState::Done;
        if let Some(id) = self.timer.lock().take() {
            space.request_timers().cancel(id);
        }
    }

    fn poll(self: &Arc<Self>) {
        {
            let mut run = self.run.lock();
            match *run {
                RunState::Done => return,
                RunState::Running | RunState::Rerun => {
                    *run = RunState::Rerun;
                    return;
                }
                RunState::Idle => *run = RunState::Running,
            }
        }
        let Some(space) = self.space.upgrade() else {
            *self.run.lock() = RunState::Done;
            return;
        };
        let waker = Waker::from(Arc::clone(self));
        loop {
            let conns = space.conns();
            // Register before attempting (the WakerSet contract): a
            // publish racing the attempt re-wakes instead of being lost.
            let registered = register_parked_waker(&space, conns, &self.req, &waker);
            // The waking thread's own ambient trace is restored when the
            // guard drops.
            let guard = trace::scope(self.trace);
            let reply = execute(&space, conns, None, Some(self.from), self.attempt.clone());
            let reply_trace = trace::current();
            drop(guard);
            // An unregistrable source (the connection went away) answers
            // with the attempt's own error rather than parking forever.
            let outcome = if !(registered && reply_would_block(&reply)) {
                Some((reply, reply_trace))
            } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
                Some((Reply::from_error(&StmError::Timeout), None))
            } else {
                None
            };
            let mut run = self.run.lock();
            match (outcome, *run) {
                (_, RunState::Done) => return, // cancelled meanwhile
                (Some((reply, reply_trace)), _) => {
                    *run = RunState::Done;
                    drop(run);
                    self.finish(&space, reply, reply_trace);
                    return;
                }
                (None, RunState::Rerun) => *run = RunState::Running,
                (None, _) => {
                    *run = RunState::Idle;
                    return;
                }
            }
        }
    }

    fn finish(&self, space: &Arc<AddressSpace>, reply: Reply, reply_trace: Option<TraceContext>) {
        if let Some(id) = self.timer.lock().take() {
            space.request_timers().cancel(id);
        }
        space.untrack_parked(self.key);
        send_reply(space, self.from, self.seq, reply, reply_trace);
    }
}

impl Wake for ParkedRequest {
    fn wake(self: Arc<Self>) {
        self.poll();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.poll();
    }
}
