//! Steady-state online training performs no heap allocation.
//!
//! A counting global allocator (this test binary's own) tallies the
//! allocations made on the current thread while a flag is set. After a
//! warm-up that sizes every reusable buffer, a DQN step
//! (`observe` + `select_action`) and a supervised `train_batch` must not
//! allocate at all. Inputs such as `Transition`s are built outside the
//! counted region.

use autonomizer::nn::rl::{DqnAgent, DqnConfig, Transition};
use autonomizer::nn::{Activation, Adam, Loss, Network, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only bumps a const-initialized thread-local counter, which never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCATIONS.with(Cell::get)
}

/// Deterministic 4-feature state for step `i`.
fn state(i: usize) -> Vec<f32> {
    let x = (i % 17) as f32 / 17.0;
    vec![x, 1.0 - x, (i % 3) as f32 - 1.0, 0.25]
}

fn transition(i: usize, action: usize) -> Transition {
    Transition {
        state: state(i),
        action,
        reward: if action == i % 3 { 1.0 } else { -0.1 },
        next_state: state(i + 1),
        terminal: i % 11 == 10,
    }
}

#[test]
fn steady_state_dqn_step_does_not_allocate() {
    let config = DqnConfig {
        hidden: vec![16, 8],
        batch_size: 8,
        replay_capacity: 64,
        target_sync_every: 5,
        ..DqnConfig::default()
    };
    let mut agent = DqnAgent::new(4, 3, config);
    // Warm-up: fill the replay buffer past capacity (so pushes evict) and
    // run enough learning steps to size every buffer.
    let mut action = 0;
    for i in 0..100 {
        agent.observe(transition(i, action));
        action = agent.select_action(&state(i + 1));
    }
    let mut learned = 0;
    let mut total = 0;
    // Counted steps span several target syncs and both ε branches.
    for i in 100..160 {
        let t = transition(i, action);
        let next = state(i + 1);
        total += allocations_in(|| {
            learned += usize::from(agent.observe(t).is_some());
            action = agent.select_action(&next);
        });
    }
    assert_eq!(learned, 60, "every counted step learns");
    assert_eq!(total, 0, "allocations in 60 steady-state DQN steps");
}

#[test]
fn steady_state_train_batch_does_not_allocate() {
    let mut net = Network::builder(3)
        .dense(16)
        .activation(Activation::Tanh)
        .dropout(0.1)
        .dense(2)
        .build();
    let xs = Tensor::from_vec(&[8, 3], (0..24).map(|i| i as f32 / 24.0).collect());
    let ys = Tensor::from_vec(&[8, 2], (0..16).map(|i| (i % 5) as f32 / 5.0).collect());
    let mut opt = Adam::new(1e-2);
    net.train_batch(&xs, &ys, Loss::Mse, &mut opt);
    let total = allocations_in(|| {
        for _ in 0..20 {
            net.train_batch(&xs, &ys, Loss::Mse, &mut opt);
        }
    });
    assert_eq!(total, 0, "allocations in 20 steady-state train_batch steps");
}
