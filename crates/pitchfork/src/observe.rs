//! Event streaming: observe an analysis as it runs.
//!
//! An [`Observer`] registered on an [`crate::AnalysisSession`] receives
//! a typed [`Event`] at every interesting transition — a state expanded,
//! a violation found, a batch item finished, an epoch retired. The hook
//! exists so progress can be *streamed* (a future `pitchfork --serve`
//! pushes these events to clients) instead of scraped from reports
//! after the fact; [`EventLog`] is the bundled collector used by tests
//! and simple progress displays.

use crate::report::Violation;
use crate::state::SymState;

/// One analysis event, borrowed from the engine's state at the moment
/// it happens.
#[derive(Clone, Copy, Debug)]
pub enum Event<'a> {
    /// The explorer popped and expanded a frontier state.
    StateExpanded {
        /// States expanded so far in this exploration (including this
        /// one).
        states: usize,
        /// Frontier occupancy after the expansion.
        frontier: usize,
        /// The expanded state.
        state: &'a SymState,
    },
    /// A secret-labeled observation was witnessed.
    ViolationFound {
        /// The violation, schedule and trace included.
        violation: &'a Violation,
        /// States expanded when the witness appeared.
        states: usize,
    },
    /// A batch item finished analyzing.
    ItemFinished {
        /// The item's display name.
        name: &'a str,
        /// Whether its report carries violations.
        flagged: bool,
        /// States its exploration expanded.
        states: usize,
    },
    /// The session retired its arena epoch (and, with a cache attached,
    /// warm-started the next epoch from the snapshot).
    EpochRetired {
        /// The arena epoch that just ended.
        epoch: u64,
        /// Nodes rehydrated into the new epoch (0 without a cache).
        rehydrated: usize,
    },
}

/// An [`Event`] copied out of the engine: owned, storable, and
/// wire-ready.
///
/// Borrowed events reference engine state that is gone by the next
/// step; anything that *retains* events — the
/// [`crate::service::SessionService`] job log, the `--serve` event
/// stream — keeps this form instead. The violation payload is reduced
/// to its stable display pieces (program point, rendered observation);
/// the full [`Violation`] stays on the job's report.
/// [`crate::protocol`] serializes this type with stable field names.
#[derive(Clone, Debug, PartialEq)]
pub enum OwnedEvent {
    /// See [`Event::StateExpanded`].
    StateExpanded {
        /// States expanded so far in this exploration.
        states: usize,
        /// Frontier occupancy after the expansion.
        frontier: usize,
        /// Reorder-buffer occupancy of the expanded state.
        rob_depth: usize,
    },
    /// See [`Event::ViolationFound`].
    ViolationFound {
        /// States expanded when the witness appeared.
        states: usize,
        /// Program point of the leak (best-effort attribution).
        pc: u64,
        /// The secret-labeled observation, rendered
        /// (`sct_core::Observation`'s stable display form).
        observation: String,
    },
    /// See [`Event::ItemFinished`].
    ItemFinished {
        /// The item's display name.
        name: String,
        /// Whether its report carries violations.
        flagged: bool,
        /// States its exploration expanded.
        states: usize,
    },
    /// See [`Event::EpochRetired`].
    EpochRetired {
        /// The arena epoch that just ended.
        epoch: u64,
        /// Nodes rehydrated into the new epoch (0 without a cache).
        rehydrated: usize,
    },
}

impl From<&Event<'_>> for OwnedEvent {
    fn from(event: &Event<'_>) -> Self {
        match *event {
            Event::StateExpanded {
                states,
                frontier,
                state,
            } => OwnedEvent::StateExpanded {
                states,
                frontier,
                rob_depth: state.rob.len(),
            },
            Event::ViolationFound { violation, states } => OwnedEvent::ViolationFound {
                states,
                pc: violation.pc,
                observation: violation.observation.to_string(),
            },
            Event::ItemFinished {
                name,
                flagged,
                states,
            } => OwnedEvent::ItemFinished {
                name: name.to_string(),
                flagged,
                states,
            },
            Event::EpochRetired { epoch, rehydrated } => {
                OwnedEvent::EpochRetired { epoch, rehydrated }
            }
        }
    }
}

/// A sink for [`Event`]s.
///
/// Observers are owned by the session and invoked synchronously on the
/// analyzing thread; keep handlers cheap (copy the data out, notify a
/// channel) — a slow observer is a slow analysis.
pub trait Observer {
    /// Receive one event.
    fn on_event(&mut self, event: &Event<'_>);
}

/// Every `FnMut` over events is an observer.
impl<F: FnMut(&Event<'_>)> Observer for F {
    fn on_event(&mut self, event: &Event<'_>) {
        self(event)
    }
}

/// The boxed observer form sessions own. `Send` because a daemon
/// ([`crate::server`]) runs its session — observers included — on a
/// worker thread; share state out of an observer with `Arc<Mutex<..>>`.
pub type BoxObserver = Box<dyn Observer + Send>;

/// An aggregating observer: counts per event kind and remembers the
/// first witness, enough for progress lines and assertions without
/// retaining every event.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    /// `StateExpanded` events seen.
    pub states_expanded: usize,
    /// `ViolationFound` events seen.
    pub violations_found: usize,
    /// `ItemFinished` events seen.
    pub items_finished: usize,
    /// `EpochRetired` events seen.
    pub epochs_retired: usize,
    /// States expanded when the first `ViolationFound` arrived.
    pub first_witness_states: Option<usize>,
    /// Deepest ROB occupancy observed across expansions.
    pub max_rob_depth: usize,
}

impl Observer for EventLog {
    fn on_event(&mut self, event: &Event<'_>) {
        match event {
            Event::StateExpanded { state, .. } => {
                self.states_expanded += 1;
                self.max_rob_depth = self.max_rob_depth.max(state.rob.len());
            }
            Event::ViolationFound { states, .. } => {
                self.violations_found += 1;
                self.first_witness_states.get_or_insert(*states);
            }
            Event::ItemFinished { .. } => self.items_finished += 1,
            Event::EpochRetired { .. } => self.epochs_retired += 1,
        }
    }
}

/// Fan one event out to every registered observer (the session's
/// internal dispatcher).
pub(crate) fn emit(observers: &mut [BoxObserver], event: Event<'_>) {
    for obs in observers.iter_mut() {
        obs.on_event(&event);
    }
}

/// Where an exploration delivers its events: directly into the
/// observer slice (the serial engine) or through a mutex shared by
/// worker threads (the parallel engine). The indirection keeps the
/// expansion/violation plumbing identical in both engines.
pub(crate) trait EventSink {
    /// Deliver one event.
    fn emit(&mut self, event: Event<'_>);
}

/// The serial engine's sink: no locking, same call path as before the
/// parallel engine existed.
pub(crate) struct DirectSink<'a>(pub &'a mut [BoxObserver]);

impl EventSink for DirectSink<'_> {
    fn emit(&mut self, event: Event<'_>) {
        emit(self.0, event);
    }
}

/// The parallel engine's sink: worker threads serialize on the mutex
/// only for the duration of one observer fan-out.
pub(crate) struct SharedSink<'a, 'b>(pub &'a std::sync::Mutex<&'b mut [BoxObserver]>);

impl EventSink for SharedSink<'_, '_> {
    fn emit(&mut self, event: Event<'_>) {
        let mut guard = self
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        emit(&mut guard, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_aggregates() {
        let (_, cfg) = sct_core::examples::fig1();
        let with_depth = |depth: usize| {
            let mut st = SymState::from_config(&cfg);
            for _ in 0..depth {
                st.rob.push(crate::state::SymTransient::Fence);
            }
            st
        };
        let (deep, shallow) = (with_depth(5), with_depth(3));
        let mut log = EventLog::default();
        log.on_event(&Event::StateExpanded {
            states: 1,
            frontier: 2,
            state: &deep,
        });
        log.on_event(&Event::StateExpanded {
            states: 2,
            frontier: 1,
            state: &shallow,
        });
        log.on_event(&Event::EpochRetired {
            epoch: 0,
            rehydrated: 10,
        });
        assert_eq!(log.states_expanded, 2);
        assert_eq!(log.max_rob_depth, 5);
        assert_eq!(log.epochs_retired, 1);
        assert_eq!(log.first_witness_states, None);
    }

    #[test]
    fn closures_are_observers() {
        let mut count = 0usize;
        {
            let mut f = |_: &Event<'_>| count += 1;
            f.on_event(&Event::ItemFinished {
                name: "x",
                flagged: false,
                states: 1,
            });
        }
        assert_eq!(count, 1);
    }
}
