//! Shared harness utilities for regenerating every table and figure of the
//! paper. [`report`] defines each experiment once, as a section of
//! `EXPERIMENTS.md`; `paper_report` assembles every section, and the
//! `fig*`/`tab*` binaries under `src/bin/` each print their own. See
//! `DESIGN.md` for the experiment index.

pub mod harness;
pub mod report;
