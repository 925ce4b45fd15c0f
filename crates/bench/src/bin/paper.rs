//! `paper <experiment>`: see [`mamdr_bench::paper`].

fn main() {
    mamdr_bench::paper::main()
}
