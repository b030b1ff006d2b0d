//! The `aurora-serve` daemon: answers design-space queries over a unix
//! socket and/or localhost HTTP, memoising every simulated cell in a
//! persistent result store.
//!
//! ```text
//! aurora-serve --store DIR [--unix PATH] [--http ADDR]
//! ```
//!
//! At least one of `--unix`/`--http` is required. The process runs
//! until killed; the store is crash-safe, so `SIGKILL` at any moment
//! costs at most the cell being appended. See `docs/SERVICE.md`.

use std::net::TcpListener;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use aurora_serve::{server, Engine, ResultStore};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut store_dir = None;
    let mut unix_path = None;
    let mut http_addr = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store" => store_dir = it.next().cloned(),
            "--unix" => unix_path = it.next().cloned(),
            "--http" => http_addr = it.next().cloned(),
            "--help" | "-h" => {
                println!("usage: aurora-serve --store DIR [--unix PATH] [--http ADDR]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("aurora-serve: unknown argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(store_dir) = store_dir else {
        eprintln!("aurora-serve: --store DIR is required");
        return ExitCode::FAILURE;
    };
    if unix_path.is_none() && http_addr.is_none() {
        eprintln!("aurora-serve: at least one of --unix PATH / --http ADDR is required");
        return ExitCode::FAILURE;
    }

    // Bind every listener before touching the store: a daemon refused
    // for a taken socket or port must not create or recover a store.
    let unix = match unix_path {
        Some(path) => match server::bind_unix(Path::new(&path)) {
            Ok(listener) => Some((path, listener)),
            Err(e) => {
                eprintln!("aurora-serve: binding unix socket `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    // A refused start leaves no socket file of its own behind.
    let unbind = || {
        if let Some((path, _)) = &unix {
            let _ = std::fs::remove_file(path);
        }
    };
    let http = match http_addr {
        Some(addr) => match TcpListener::bind(&addr) {
            Ok(listener) => Some(listener),
            Err(e) => {
                eprintln!("aurora-serve: binding http `{addr}`: {e}");
                unbind();
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let store = match ResultStore::open(Path::new(&store_dir)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("aurora-serve: opening store `{store_dir}`: {e}");
            unbind();
            return ExitCode::FAILURE;
        }
    };
    println!(
        "store: {} cells in {store_dir} ({} shard(s) rebuilt, {} damaged record(s) dropped)",
        store.len(),
        store.shards_rebuilt(),
        store.records_recovered()
    );
    let engine = Arc::new(Engine::new(store));

    let mut handles = Vec::new();
    if let Some((path, listener)) = unix {
        handles.push(server::serve_unix(
            Arc::clone(&engine),
            listener,
            Path::new(&path),
        ));
        println!("listening on unix socket {path}");
    }
    if let Some(listener) = http {
        match server::serve_http(Arc::clone(&engine), listener) {
            Ok((h, local)) => {
                println!("listening on http://{local}");
                handles.push(h);
            }
            Err(e) => {
                eprintln!("aurora-serve: serving http: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Daemon mode: the accept loops own their threads; park forever.
    // (Shutdown is SIGTERM/SIGKILL — the store is crash-safe by design.)
    loop {
        std::thread::park();
    }
}
