//! Test-only support code shared by integration tests.

pub mod chaos;
