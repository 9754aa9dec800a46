//! The workspace's one parallel executor.
//!
//! [`fan_out`] runs a list of tasks on a fixed set of workers, each with
//! its own state (its scratch buffers), and returns the results in task
//! order. A shared cursor hands out task indices, so workers stay busy
//! when task costs vary. Worker 0 runs on the calling thread; the others
//! run on scoped threads spawned for the call, and no more workers start
//! than there are tasks. A caller that keeps the states keeps the
//! workers' buffers from call to call.
//!
//! Tasks of one call may hand values to each other through [`Slot`]s: a
//! task writes a slot once, and any later task may wait for it. The
//! rule that makes waiting safe: **a task waits only for slots that
//! lower-numbered tasks write.** The cursor hands tasks out in order, so
//! every lower-numbered task has a worker by then, and the lowest
//! unfinished task never waits: it can always run, at any worker count
//! and on one CPU. A task that panics abandons the slots it guards
//! ([`Slot::guard`]), and their waiters panic too, so the call re-raises
//! the panic instead of hanging.
//!
//! Everything that runs in parallel runs on it:
//!
//! * the [`LandmarkTable`](crate::LandmarkTable) build, one task per
//!   landmark row;
//! * `mobisim`'s trip planner, whose route pass routes one chunk of a
//!   batch's trips per task on maps too large for
//!   [`SourceTrees`](crate::SourceTrees);
//! * `anonymizer`'s `AnonymizerService::anonymize_batch`;
//! * the continuous pipeline's tick, whose tasks are its stages in
//!   order: the key pass, one cloak task per chunk of a shard's
//!   requests, the settle task (retry ladder, injected faults and
//!   verification's first pass), the report and attack legs, each
//!   reaching its own state through a lock no other task takes, and one
//!   peel task per request; each waits through slots for what it reads.
//!
//! Each of them sizes itself with [`workers`] and, where it splits a
//! list, with [`chunk_len`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};

/// The worker count behind a parallelism setting: the setting itself,
/// or for `0` the available parallelism (1 when that cannot be read).
pub fn workers(parallelism: usize) -> usize {
    match parallelism {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Items per chunk when `total` items are split over `workers` workers:
/// about four chunks per worker, so the cursor can even out uneven
/// items, and never more than 64.
pub fn chunk_len(total: usize, workers: usize) -> usize {
    (total / (workers.max(1) * 4)).clamp(1, 64)
}

/// Runs `run(state, task)` for every task in `0..tasks` on up to
/// `states.len()` workers, worker `w` with `states[w]`, and returns the
/// results in task order. Only the first `min(states.len(), tasks)`
/// states are used. Workers take tasks in ascending order, so a task
/// may wait for a [`Slot`] that a lower-numbered task writes (see the
/// module docs).
///
/// # Panics
///
/// Panics if there are tasks but no states, and re-raises a task's
/// panic.
pub fn fan_out<S, T, F>(states: &mut [S], tasks: usize, run: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(&mut S, usize) -> T + Sync,
{
    // The cursor only hands out task indices; the results come back
    // through the joins, so it publishes nothing and `Relaxed` is enough.
    let cursor = AtomicUsize::new(0);
    let work = |state: &mut S| {
        let mut done = Vec::new();
        loop {
            let task = cursor.fetch_add(1, Ordering::Relaxed);
            if task >= tasks {
                return done;
            }
            done.push((task, run(state, task)));
        }
    };
    let active = states.len().min(tasks);
    let Some((first, rest)) = states[..active].split_first_mut() else {
        assert_eq!(tasks, 0, "tasks need at least one worker state");
        return Vec::new();
    };
    let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
    let mut place = |done: Vec<(usize, T)>| {
        for (task, out) in done {
            slots[task] = Some(out);
        }
    };
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = rest
            .iter_mut()
            .map(|state| scope.spawn(move || work(state)))
            .collect();
        place(work(first));
        for handle in handles {
            place(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("the cursor hands every task to exactly one worker"))
        .collect()
}

/// How many times [`Slot::wait`] checks for the value, with a spin hint
/// between checks, before it blocks.
const SPINS: u32 = 256;

/// A value one task of a [`fan_out`] call writes once and later tasks
/// wait for.
///
/// [`wait`](Slot::wait) spins briefly, then blocks until the value is
/// written. Only a task with a lower number than every waiter may write
/// a slot (the module docs' rule). The writing task takes a
/// [`guard`](Slot::guard) over its slots before it waits for anything
/// itself: if it panics, or returns without writing one of them, the
/// guard abandons the empty ones, and their waiters panic instead of
/// waiting forever.
#[derive(Debug)]
pub struct Slot<T> {
    value: OnceLock<T>,
    wake: Mutex<Wake>,
    ready: Condvar,
}

/// What a blocked waiter and the slot's writer tell each other.
#[derive(Debug, Default)]
struct Wake {
    /// A waiter blocks (or is about to) on `ready`.
    sleeping: bool,
    /// The guarding task ended with the slot still empty.
    abandoned: bool,
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot {
            value: OnceLock::new(),
            wake: Mutex::new(Wake::default()),
            ready: Condvar::new(),
        }
    }
}

impl<T> Slot<T> {
    /// An empty slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the value and wakes every waiter.
    ///
    /// # Panics
    ///
    /// Panics if the slot was written before.
    pub fn set(&self, value: T) {
        assert!(self.value.set(value).is_ok(), "a slot is written once");
        // The value is in place before the lock is taken: a waiter that
        // checks it under the lock either sees it or is already asleep.
        if self.lock().sleeping {
            self.ready.notify_all();
        }
    }

    /// The value, once written.
    ///
    /// # Panics
    ///
    /// Panics if the slot was abandoned: its writer panicked or returned
    /// without writing it.
    pub fn wait(&self) -> &T {
        for _ in 0..SPINS {
            if let Some(value) = self.value.get() {
                return value;
            }
            std::hint::spin_loop();
        }
        let mut wake = self.lock();
        loop {
            if let Some(value) = self.value.get() {
                return value;
            }
            assert!(
                !wake.abandoned,
                "the task writing this slot ended without writing it"
            );
            wake.sleeping = true;
            wake = self
                .ready
                .wait(wake)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The value, if it was written.
    pub fn into_inner(self) -> Option<T> {
        self.value.into_inner()
    }

    /// Guards the slots a task writes: dropping the guard, as the task
    /// returns or unwinds, abandons each of `slots` still empty.
    pub fn guard(slots: &[Slot<T>]) -> SlotGuard<'_, T> {
        SlotGuard(slots)
    }

    /// Every update of [`Wake`] is one field store, so a poisoned lock
    /// still holds a valid value.
    fn lock(&self) -> std::sync::MutexGuard<'_, Wake> {
        self.wake.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Abandons the empty slots among those it guards when dropped; see
/// [`Slot::guard`].
#[must_use = "the guard abandons its slots when dropped"]
#[derive(Debug)]
pub struct SlotGuard<'a, T>(&'a [Slot<T>]);

impl<T> Drop for SlotGuard<'_, T> {
    fn drop(&mut self) {
        // Only the guarding task writes these slots, so one it wrote
        // stays written.
        for slot in self.0.iter().filter(|slot| slot.value.get().is_none()) {
            let mut wake = slot.lock();
            wake.abandoned = true;
            if wake.sleeping {
                slot.ready.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Barrier};
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_task_order() {
        for workers in 1..=3 {
            for tasks in [0, 1, 2, 3, 7, 100] {
                let mut states = vec![0usize; workers];
                let squares = fan_out(&mut states, tasks, |runs, task| {
                    *runs += 1;
                    task * task
                });
                let expected: Vec<usize> = (0..tasks).map(|t| t * t).collect();
                assert_eq!(squares, expected, "{workers} workers, {tasks} tasks");
                assert_eq!(
                    states.iter().sum::<usize>(),
                    tasks,
                    "{workers} workers, {tasks} tasks: every task ran once"
                );
            }
        }
    }

    #[test]
    fn results_follow_task_order_not_worker_order() {
        // Tasks 0 and 1 meet at a barrier, so they run on different
        // workers. The spawned worker then holds its task until task 2
        // starts, which only the calling thread is free to take: the
        // calling thread finishes one low task and the highest one.
        let caller = std::thread::current().id();
        let meet = Barrier::new(2);
        let last_taken = Barrier::new(2);
        let mut states = vec![(); 2];
        let out = fan_out(&mut states, 3, |_, task| {
            if task < 2 {
                meet.wait();
            }
            if task == 2 || std::thread::current().id() != caller {
                last_taken.wait();
            }
            task
        });
        assert_eq!(out, [0, 1, 2]);
    }

    #[test]
    fn no_more_workers_start_than_there_are_tasks() {
        // Two tasks that must run at the same time on three worker
        // states: the first two states take one task each, worker 0 on
        // the calling thread, and the third is never lent out.
        let meet = Barrier::new(2);
        let mut states: Vec<Option<ThreadId>> = vec![None; 3];
        let ran = fan_out(&mut states, 2, |seen, task| {
            assert!(seen.is_none(), "one task per worker here");
            *seen = Some(std::thread::current().id());
            meet.wait();
            task
        });
        assert_eq!(ran, [0, 1]);
        assert_eq!(states[0], Some(std::thread::current().id()));
        assert!(states[1].is_some());
        assert_ne!(states[1], states[0]);
        assert_eq!(states[2], None);

        // One task never leaves the calling thread.
        let mut states: Vec<Option<ThreadId>> = vec![None; 3];
        fan_out(&mut states, 1, |seen, _| {
            *seen = Some(std::thread::current().id());
        });
        assert_eq!(states, [Some(std::thread::current().id()), None, None]);
    }

    #[test]
    fn tasks_that_wait_for_earlier_tasks_return_in_task_order() {
        // Each task reads two earlier tasks' slots and writes its own.
        let mut expected = vec![1u64];
        for t in 1..64 {
            expected.push(expected[t / 2] + expected[t - 1]);
        }
        for workers in 1..=4 {
            let slots: Vec<Slot<u64>> = (0..expected.len()).map(|_| Slot::new()).collect();
            let out = fan_out(&mut vec![(); workers], slots.len(), |_, t| {
                let _guard = Slot::guard(&slots[t..=t]);
                let value = match t {
                    0 => 1,
                    t => slots[t / 2].wait() + slots[t - 1].wait(),
                };
                slots[t].set(value);
                value
            });
            assert_eq!(out, expected, "{workers} workers");
        }
    }

    #[test]
    fn a_waiter_on_the_calling_thread_waits_for_the_spawned_worker() {
        // Tasks 0 and 1 meet at a barrier, so they run on different
        // workers, and each writes its slot. The spawned worker holds its
        // slot until task 2 has started, which only the calling thread is
        // free to take; task 2 then waits for both slots.
        let caller = std::thread::current().id();
        let meet = Barrier::new(2);
        let last_taken = Barrier::new(2);
        let slots: Vec<Slot<usize>> = (0..2).map(|_| Slot::new()).collect();
        let out = fan_out(&mut [(); 2], 3, |_, task| {
            if task == 2 {
                assert_eq!(std::thread::current().id(), caller);
                last_taken.wait();
                return slots[0].wait() + slots[1].wait();
            }
            let _guard = Slot::guard(&slots[task..=task]);
            meet.wait();
            if std::thread::current().id() != caller {
                last_taken.wait();
            }
            slots[task].set(task + 10);
            task
        });
        assert_eq!(out, [0, 1, 21]);
    }

    #[test]
    fn a_panicking_writer_fails_the_call_instead_of_hanging() {
        // Task `writer` guards the slot and panics; every later task waits
        // for it. With several workers, a writer at task 0 first meets
        // task 1 at a barrier, so a waiter runs beside the panic. Each call
        // runs on its own thread, so a waiter that never wakes fails the
        // test at the timeout instead of hanging it.
        for workers in 1..=3 {
            for writer in 0..2 {
                let (sent, received) = mpsc::channel();
                let call = std::thread::spawn(move || {
                    let slot = Slot::<usize>::new();
                    let meet = Barrier::new(2);
                    let meets = workers > 1 && writer == 0;
                    let run = || {
                        fan_out(&mut vec![(); workers], 3, |_, task| {
                            match task.cmp(&writer) {
                                std::cmp::Ordering::Less => task,
                                std::cmp::Ordering::Equal => {
                                    let _guard = Slot::guard(std::slice::from_ref(&slot));
                                    if meets {
                                        meet.wait();
                                    }
                                    panic!("the writer fails");
                                }
                                std::cmp::Ordering::Greater => {
                                    if meets && task == 1 {
                                        meet.wait();
                                    }
                                    *slot.wait()
                                }
                            }
                        })
                    };
                    let failed =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).is_err();
                    sent.send(failed).expect("the test waits for the call");
                });
                assert_eq!(
                    received.recv_timeout(Duration::from_secs(60)),
                    Ok(true),
                    "{workers} workers, writer {writer}"
                );
                call.join().expect("the call's panic was caught");
            }
        }
    }

    #[test]
    fn chunks_are_about_four_per_worker_and_at_most_64() {
        assert_eq!(chunk_len(0, 2), 1);
        assert_eq!(chunk_len(7, 2), 1);
        assert_eq!(chunk_len(128, 2), 16);
        assert_eq!(chunk_len(128, 0), 32, "no workers counts as one");
        assert_eq!(chunk_len(10_000, 2), 64);
    }
}
