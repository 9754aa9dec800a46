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
//! Everything that runs in parallel runs on it:
//!
//! * the [`LandmarkTable`](crate::LandmarkTable) build, one task per
//!   landmark row;
//! * `mobisim`'s trip planner, whose route pass routes one chunk of a
//!   batch's trips per task on maps too large for
//!   [`SourceTrees`](crate::SourceTrees);
//! * `anonymizer`'s `AnonymizerService::anonymize_batch`;
//! * the continuous pipeline's cloak stage, one task per chunk of a
//!   shard's requests;
//! * the pipeline's settle stage, whose first tasks are the report and
//!   attack legs, each reaching its own state through a lock no other
//!   task takes, and whose remaining tasks peel one receipt each for
//!   verification.
//!
//! Each of them sizes itself with [`workers`] and, where it splits a
//! list, with [`chunk_len`].

use std::sync::atomic::{AtomicUsize, Ordering};

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
/// states are used.
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

#[cfg(test)]
mod tests {
    use super::*;
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
    fn chunks_are_about_four_per_worker_and_at_most_64() {
        assert_eq!(chunk_len(0, 2), 1);
        assert_eq!(chunk_len(7, 2), 1);
        assert_eq!(chunk_len(128, 2), 16);
        assert_eq!(chunk_len(128, 0), 32, "no workers counts as one");
        assert_eq!(chunk_len(10_000, 2), 64);
    }
}
