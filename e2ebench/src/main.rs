fn main() {
    e2ebench::cli();
}
