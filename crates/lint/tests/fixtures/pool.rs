//! L013 fixture: `fixture_drain` is the declared `[[pool]]` root; the
//! stdio lock two calls down must fire with the full chain in its
//! message, and so must a sleep and both channel waits.

pub fn fixture_drain(jobs: &[u64]) -> u64 {
    let mut acc = 0;
    for j in jobs {
        acc += step(*j);
    }
    acc
}

fn step(j: u64) -> u64 {
    log_progress(j);
    wait_for_work(j);
    j + 1
}

fn log_progress(j: u64) {
    println!("cell {j}"); // FIRE: L013 (stdio lock in the pool loop)
}

fn wait_for_work(j: u64) {
    std::thread::sleep(std::time::Duration::from_millis(j)); // FIRE: L013 (sleep in the pool loop)
    let (tx, rx) = std::sync::mpsc::channel();
    let _ = tx.send(j);
    let _ = rx.recv(); // FIRE: L013 (channel wait)
    let _ = rx.recv_timeout(std::time::Duration::from_millis(j)); // FIRE: L013 (timed channel wait)
}
