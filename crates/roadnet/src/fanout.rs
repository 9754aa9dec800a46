//! The workspace's one parallel executor.
//!
//! A fan-out runs a list of tasks on a fixed set of workers, each with
//! its own state (its scratch buffers), and returns the results in task
//! order. A shared cursor hands out task indices, so workers stay busy
//! when task costs vary. Worker 0 is the calling thread, and no more
//! workers run than there are tasks. A caller that keeps the states
//! keeps the workers' buffers from call to call.
//!
//! There are two entry points over one task loop, one result order and
//! one way of re-raising a task's panic (the first in worker order, once
//! every worker is done):
//!
//! * [`fan_out`] spawns scoped threads for the call, so its tasks may
//!   borrow from the caller. One-shot callers use it: the
//!   [`LandmarkTable`](crate::LandmarkTable) build, one task per landmark
//!   row, and `anonymizer`'s `AnonymizerService::anonymize_batch`, whose
//!   `&self` signature leaves it nothing to keep threads in.
//! * [`Pool`] keeps its threads for as long as it lives, and a call
//!   wakes them instead of spawning new ones. A pool starts with no
//!   threads and grows to its widest call: a call that lends more states
//!   than the pool has threads spawns the missing ones. Its tasks must own
//!   what they read (`'static`): a caller moves its state into an `Arc`
//!   for the call and takes it back with `Arc::try_unwrap` once the call
//!   returns, because a kept worker drops its part of the call before it
//!   hands its state back. A continuous pipeline has one pool, its
//!   simulation's, for both of its per-tick callers: `mobisim`'s trip
//!   planner, whose route pass routes one chunk of a batch's trips per
//!   task on maps too large for [`SourceTrees`](crate::SourceTrees), and
//!   the pipeline's tick, whose tasks are its stages in order: the key
//!   pass, one cloak task per chunk of a shard's requests, the settle
//!   task (retry ladder, injected faults and verification's first pass),
//!   the report and attack legs, each reaching its own state through a
//!   lock no other task takes, and one peel task per request; each waits
//!   through slots for what it reads.
//!
//! A pool's waits spin for 500 µs before they block, which is where its
//! gain over spawning comes from: a kept worker that finished its part
//! spins for its part of the next call, and the calling thread, done
//! with its own share, spins for the other workers' parts. Both spin
//! only when the available parallelism covers the call's workers; on one
//! CPU every wait blocks at once, so a spinning thread never holds the
//! only core another worker needs.
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
//! Each caller sizes itself with [`workers`] and, where it splits a
//! list, with [`chunk_len`].

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The worker count behind a parallelism setting: the setting itself,
/// or for `0` the available parallelism (1 when that cannot be read).
pub fn workers(parallelism: usize) -> usize {
    match parallelism {
        0 => thread::available_parallelism().map_or(1, |n| n.get()),
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
/// states are used; every worker but the calling thread runs on a scoped
/// thread spawned for the call. Workers take tasks in ascending order,
/// so a task may wait for a [`Slot`] that a lower-numbered task writes
/// (see the module docs).
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
    let active = states.len().min(tasks);
    let Some((first, rest)) = states[..active].split_first_mut() else {
        assert_eq!(tasks, 0, "tasks need at least one worker state");
        return Vec::new();
    };
    let call = Call::new(tasks, run);
    let shares = thread::scope(|scope| {
        let call = &call;
        let spawned: Vec<_> = rest
            .iter_mut()
            .map(|state| scope.spawn(move || call.share(state)))
            .collect();
        let mut shares = vec![call.share(first)];
        shares.extend(spawned.into_iter().map(|s| s.join().unwrap_or_else(Err)));
        shares
    });
    gather(tasks, shares)
}

/// How long a wait of a [`Pool`] call spins before it blocks: a kept
/// worker that finished its part, for its part of the next call, and the
/// calling thread, done with its own share, for the kept workers' parts.
/// Long enough for a call that follows closely: with the tick's and the
/// route pass's calls on one pool, two-CPU `city` ticks read faster with
/// a 500 µs worker spin than with a 50 µs one, and, with a pool per
/// caller, caller spins of 150 µs and 2 ms read slower than 500 µs.
const SPIN: Duration = Duration::from_micros(500);

/// Threads kept for many fan-outs: the workers of every call after the
/// calling thread. A pool starts with none, and a call that lends more
/// states than the pool has threads spawns the missing ones, so it keeps
/// one thread fewer than its widest call's workers. Dropping the pool
/// ends and joins them.
///
/// Calls run [`fan_out`]'s task loop and return results in task order,
/// with the same [`Slot`] rule and the same panics, but their tasks and
/// states must be `'static` (see the module docs).
#[derive(Debug, Default)]
pub struct Pool {
    /// Each kept thread and the post that hands it its part of a call,
    /// kept thread `t` being worker `t + 1`.
    threads: Vec<(SyncSender<Part>, JoinHandle<()>)>,
}

/// A kept worker's part of a call, and whether the worker spins for its
/// next part before it blocks.
struct Part {
    run: Box<dyn FnOnce() + Send>,
    spin: bool,
}

impl Pool {
    /// Runs `run(state, task)` for every task in `0..tasks` on
    /// `min(states.len(), tasks)` workers, worker `w` with `states[w]`,
    /// and returns the results in task order, as [`fan_out`] does. The
    /// pool first spawns the kept threads the call lacks. Each state
    /// after the first is lent to its kept thread for the call and is
    /// back in its place when the call returns. By then `run` and what it
    /// captured are dropped, so a value shared with the tasks through an
    /// `Arc` can be taken back with `Arc::try_unwrap`.
    ///
    /// # Panics
    ///
    /// Panics if there are tasks but no states, and re-raises a task's
    /// panic once every worker is done with the call.
    pub fn fan_out<S, T, F>(&mut self, states: &mut Vec<S>, tasks: usize, run: F) -> Vec<T>
    where
        S: Send + 'static,
        T: Send + 'static,
        F: Fn(&mut S, usize) -> T + Send + Sync + 'static,
    {
        let active = states.len().min(tasks);
        if active == 0 {
            assert_eq!(tasks, 0, "tasks need at least one worker state");
            return Vec::new();
        }
        for _ in self.threads.len()..active - 1 {
            let (post, parts) = mpsc::sync_channel(1);
            let kept = thread::spawn(move || serve(&parts));
            self.threads.push((post, kept));
        }
        let spin = active <= cores();
        let call = Arc::new(Call::new(tasks, run));
        let (deliver, delivered) = mpsc::sync_channel(active - 1);
        for (w, (mut state, (post, _))) in states.drain(1..active).zip(&self.threads).enumerate() {
            let (call, deliver) = (Arc::clone(&call), deliver.clone());
            let run = Box::new(move || {
                let share = call.share(&mut state);
                // Drop the call, and with it this worker's hold on what
                // the tasks captured, before the caller can see the part.
                drop(call);
                // Only a caller already unwinding stops receiving.
                let _ = deliver.send((w, state, share));
            });
            post.send(Part { run, spin })
                .expect("a kept thread serves until its pool is dropped");
        }
        drop(deliver);
        let first = call.share(&mut states[0]);
        drop(call);
        let mut parts: Vec<Option<(S, Share<T>)>> = (1..active).map(|_| None).collect();
        for _ in 1..active {
            let (w, state, share) = receive(&delivered, spin.then_some(SPIN))
                .expect("every kept thread of the call delivers its part");
            parts[w] = Some((state, share));
        }
        let (lent, shares): (Vec<S>, Vec<Share<T>>) = parts
            .into_iter()
            .map(|part| part.expect("each kept thread delivers once"))
            .unzip();
        states.splice(1..1, lent);
        gather(tasks, [first].into_iter().chain(shares))
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        for (post, thread) in self.threads.drain(..) {
            // A closed post ends its thread's loop, which catches its
            // tasks' panics, so the join cannot fail.
            drop(post);
            let _ = thread.join();
        }
    }
}

/// A kept thread's loop: runs each part posted to it, and after a part
/// whose call allows it spins for the next before it blocks. It ends
/// when its pool closes the post.
fn serve(parts: &Receiver<Part>) {
    let mut spin = false;
    while let Some(part) = receive(parts, spin.then_some(SPIN)) {
        (part.run)();
        spin = part.spin;
    }
}

/// The next value `from` receives, or `None` once no sender is left.
/// With a `spin` budget it polls for that long, with a spin hint between
/// polls, before it blocks.
fn receive<V>(from: &Receiver<V>, spin: Option<Duration>) -> Option<V> {
    if let Some(budget) = spin {
        let deadline = Instant::now() + budget;
        loop {
            for _ in 0..64 {
                match from.try_recv() {
                    Ok(value) => return Some(value),
                    Err(TryRecvError::Disconnected) => return None,
                    Err(TryRecvError::Empty) => std::hint::spin_loop(),
                }
            }
            if Instant::now() >= deadline {
                break;
            }
        }
    }
    from.recv().ok()
}

/// The available parallelism, read once per process: each read opens
/// the process's cgroup files.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| workers(0))
}

/// One call's tasks: the function that runs them and the cursor that
/// hands them out in ascending order.
struct Call<F> {
    run: F,
    tasks: usize,
    cursor: AtomicUsize,
}

/// What one worker ran, as `(task, result)` pairs, or the panic that
/// ended its share.
type Share<T> = thread::Result<Vec<(usize, T)>>;

impl<F> Call<F> {
    fn new(tasks: usize, run: F) -> Self {
        Call {
            run,
            tasks,
            cursor: AtomicUsize::new(0),
        }
    }

    /// The task loop: runs the next task with `state` until the cursor
    /// passes the last one, or a task panics.
    fn share<S, T>(&self, state: &mut S) -> Share<T>
    where
        F: Fn(&mut S, usize) -> T,
    {
        panic::catch_unwind(AssertUnwindSafe(|| {
            let mut done = Vec::new();
            loop {
                // The cursor only hands out task indices; the results come
                // back with the shares, so it publishes nothing and
                // `Relaxed` is enough.
                let task = self.cursor.fetch_add(1, Ordering::Relaxed);
                if task >= self.tasks {
                    return done;
                }
                done.push((task, (self.run)(state, task)));
            }
        }))
    }
}

/// The results of a call's `shares`, listed in worker order, in task
/// order; or the first share's panic, re-raised.
fn gather<T>(tasks: usize, shares: impl IntoIterator<Item = Share<T>>) -> Vec<T> {
    let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
    let mut panicked = None;
    for share in shares {
        match share {
            Ok(done) => {
                for (task, out) in done {
                    slots[task] = Some(out);
                }
            }
            Err(panic) => {
                panicked.get_or_insert(panic);
            }
        }
    }
    if let Some(panic) = panicked {
        panic::resume_unwind(panic);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("the cursor hands every task to exactly one worker"))
        .collect()
}

/// How many times [`Slot::wait`] checks for the value, with a spin hint
/// between checks, before it blocks.
const SPINS: u32 = 256;

/// A value one task of a fan-out call ([`fan_out`] or
/// [`Pool::fan_out`]) writes once and later tasks wait for.
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
    use std::cell::RefCell;
    use std::sync::Barrier;
    use std::thread::ThreadId;

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
        // runs on its own thread, scoped or on a pool built there, so a
        // waiter that never wakes fails the test at the timeout instead of
        // hanging it. The call re-raises a task's panic with every state
        // back in place; the pool then runs one more call and is dropped,
        // which joins its threads, before the thread reports.
        for pooled in [false, true] {
            for workers in 1..=3 {
                for writer in 0..2 {
                    let (sent, received) = mpsc::channel();
                    let call = thread::spawn(move || {
                        let slot = Arc::new(Slot::<usize>::new());
                        let meet = Arc::new(Barrier::new(2));
                        let meets = workers > 1 && writer == 0;
                        let run = move |_: &mut (), task: usize| match task.cmp(&writer) {
                            std::cmp::Ordering::Less => task,
                            std::cmp::Ordering::Equal => {
                                let _guard = Slot::guard(std::slice::from_ref(&*slot));
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
                        };
                        let mut pool = Pool::default();
                        let mut states = vec![(); workers];
                        let failed = panic::catch_unwind(AssertUnwindSafe(|| {
                            if pooled {
                                pool.fan_out(&mut states, 3, run)
                            } else {
                                fan_out(&mut states, 3, run)
                            }
                        }));
                        // The panic re-raised is a task's own.
                        let raised = failed.err().and_then(|p| p.downcast_ref::<&str>().copied());
                        let kept = states.len();
                        let after = pool.fan_out(&mut states, 4, |_, task| task);
                        drop(pool);
                        sent.send((raised, kept, after))
                            .expect("the test waits for the call");
                    });
                    let at = format!("pooled {pooled}, {workers} workers, writer {writer}");
                    let (raised, kept, after) =
                        received.recv_timeout(Duration::from_secs(60)).expect(&at);
                    assert!(
                        matches!(
                            raised,
                            Some("the writer fails")
                                | Some("the task writing this slot ended without writing it")
                        ),
                        "{at}: {raised:?}"
                    );
                    assert_eq!((kept, after), (workers, vec![0, 1, 2, 3]), "{at}");
                    call.join().expect("the call's panic was caught");
                }
            }
        }
    }

    #[test]
    fn one_pool_returns_task_order_over_many_calls() {
        // Plain calls of 0 to 8 tasks alternate with calls whose tasks
        // read two earlier tasks' slots, and one pool serves them all,
        // lent 1 to 4 states: plain calls 1, 2, 3, 4 in turn, chained
        // calls 3, 4, 1, 2. Each state names its worker and counts its
        // tasks, so a state lent out and put back in the wrong place, or
        // a task run twice, shows; and the pool keeps one thread fewer
        // than its widest call so far.
        let mut chained = vec![1u64];
        for t in 1..64 {
            chained.push(chained[t / 2] + chained[t - 1]);
        }
        let mut pool = Pool::default();
        let mut states: Vec<Vec<(usize, usize)>> = (1..=4)
            .map(|workers| (0..workers).map(|w| (w, 0)).collect())
            .collect();
        let mut ran = [0; 4];
        let mut widest = 1;
        for call in 0..120 {
            let width = 1 + (call / 2 + call % 2 * 2) % 4;
            let at = format!("call {call}, {width} states");
            let lent = &mut states[width - 1];
            let tasks = if call % 2 == 0 {
                let tasks = call / 2 % 9;
                let squares = pool.fan_out(lent, tasks, |(_, runs), task| {
                    *runs += 1;
                    task * task
                });
                assert_eq!(
                    squares,
                    (0..tasks).map(|t| t * t).collect::<Vec<_>>(),
                    "{at}"
                );
                tasks
            } else {
                let slots: Arc<Vec<Slot<u64>>> =
                    Arc::new((0..chained.len()).map(|_| Slot::new()).collect());
                let out = pool.fan_out(lent, slots.len(), move |(_, runs), t| {
                    *runs += 1;
                    let _guard = Slot::guard(&slots[t..=t]);
                    let value = match t {
                        0 => 1,
                        t => slots[t / 2].wait() + slots[t - 1].wait(),
                    };
                    slots[t].set(value);
                    value
                });
                assert_eq!(out, chained, "{at}");
                chained.len()
            };
            ran[width - 1] += tasks;
            widest = widest.max(width.min(tasks));
            assert_eq!(pool.threads.len(), widest - 1, "{at}");
            let named: Vec<usize> = lent.iter().map(|&(w, _)| w).collect();
            assert_eq!(named, (0..width).collect::<Vec<_>>(), "{at}");
            let runs = lent.iter().map(|&(_, runs)| runs).sum::<usize>();
            assert_eq!(runs, ran[width - 1], "{at}");
        }
    }

    #[test]
    fn dropping_a_pool_joins_every_thread() {
        // Every worker takes one task, the tasks meeting at a barrier, and
        // each kept thread keeps a clone of the marker in a thread-local
        // until it ends. The call itself holds no clone once it returns.
        thread_local! {
            static HELD: RefCell<Option<Arc<()>>> = const { RefCell::new(None) };
        }
        let marker = Arc::new(());
        let caller = thread::current().id();
        for workers in 1..=4 {
            let mut pool = Pool::default();
            let (meet, held) = (Arc::new(Barrier::new(workers)), Arc::clone(&marker));
            pool.fan_out(&mut vec![(); workers], workers, move |_, _| {
                meet.wait();
                if thread::current().id() != caller {
                    HELD.with(|kept| *kept.borrow_mut() = Some(Arc::clone(&held)));
                }
            });
            assert_eq!(Arc::strong_count(&marker), workers, "{workers} workers");
            drop(pool);
            assert_eq!(Arc::strong_count(&marker), 1, "{workers} workers");
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
