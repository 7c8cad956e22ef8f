//! End-to-end interpreter tests: parse → normalize → compile → drive.

use super::*;

fn ints(vals: Vec<Value>) -> Vec<i64> {
    vals.iter()
        .map(|v| v.as_int().expect("int value"))
        .collect()
}

fn eval_ints(interp: &Interp, src: &str) -> Vec<i64> {
    ints(interp.eval(src).unwrap())
}

#[test]
fn literals_and_arithmetic() {
    let i = Interp::new();
    assert_eq!(eval_ints(&i, "1 + 2 * 3"), vec![7]);
    assert_eq!(eval_ints(&i, "2 ^ 10"), vec![1024]);
    assert_eq!(eval_ints(&i, "7 % 3"), vec![1]);
    assert_eq!(i.eval("3.5 + 1").unwrap()[0].as_real(), Some(4.5));
    assert_eq!(i.eval("\"5\" + 1").unwrap()[0].as_int(), Some(6)); // coercion
}

#[test]
fn big_integer_literals_and_promotion() {
    let i = Interp::new();
    let huge = i.eval("99999999999999999999 + 1").unwrap();
    assert_eq!(huge[0].to_string(), "100000000000000000000");
    let promoted = i.eval("9223372036854775807 + 1").unwrap();
    assert_eq!(promoted[0].to_string(), "9223372036854775808");
}

#[test]
fn to_range_generates() {
    let i = Interp::new();
    assert_eq!(eval_ints(&i, "1 to 5"), vec![1, 2, 3, 4, 5]);
    assert_eq!(eval_ints(&i, "10 to 1 by -4"), vec![10, 6, 2]);
}

#[test]
fn cross_product_of_nested_generators() {
    let i = Interp::new();
    // The transformation test: both operands are generators.
    assert_eq!(eval_ints(&i, "(1 to 2) * (10 to 11)"), vec![10, 11, 20, 22]);
}

#[test]
fn paper_prime_multiples_example() {
    // (1 to 2) * isprime(4 to 7)  ⇒  5, 7, 10, 14  (Sec. II).
    let i = Interp::new();
    assert_eq!(
        eval_ints(&i, "(1 to 2) * isprime(4 to 7)"),
        vec![5, 7, 10, 14]
    );
}

#[test]
fn goal_directed_comparisons_filter() {
    let i = Interp::new();
    // comparisons produce the right operand or fail
    assert_eq!(eval_ints(&i, "4 < 5"), vec![5]);
    assert_eq!(eval_ints(&i, "5 < 4"), Vec::<i64>::new());
    // chaining: 1 <= (2 to 8 by 3) <= 7 — each surviving element produces
    // the RIGHT operand (Icon semantics), and 8 is filtered out.
    assert_eq!(eval_ints(&i, "1 <= (2 to 8 by 3) <= 7"), vec![7, 7]);
}

#[test]
fn product_and_alternation() {
    let i = Interp::new();
    assert_eq!(eval_ints(&i, "(1 | 2 | 3) & 9"), vec![9, 9, 9]);
    assert_eq!(eval_ints(&i, "1 | (5 to 6)"), vec![1, 5, 6]);
}

#[test]
fn alternation_of_function_applications() {
    // (f | g)(x) ≡ f(x) | g(x): function names are expressions.
    let i = Interp::new();
    i.load("def f(x) { return x + 1; }\ndef g(x) { return x * 10; }")
        .unwrap();
    assert_eq!(eval_ints(&i, "(f | g)(5)"), vec![6, 50]);
}

#[test]
fn assignment_is_a_generator() {
    let i = Interp::new();
    // every x := 1 to 3 assigns repeatedly; final value visible afterwards
    i.eval("every x := 1 to 3").unwrap();
    assert_eq!(eval_ints(&i, "x"), vec![3]);
}

#[test]
fn assignment_yields_assigned_values() {
    let i = Interp::new();
    assert_eq!(eval_ints(&i, "y := 5 + 2"), vec![7]);
}

#[test]
fn list_literals_indexing_and_size() {
    let i = Interp::new();
    i.eval("xs := [10, 20, 30]").unwrap();
    assert_eq!(eval_ints(&i, "xs[1]"), vec![10]);
    assert_eq!(eval_ints(&i, "xs[3]"), vec![30]);
    assert_eq!(eval_ints(&i, "*xs"), vec![3]);
    i.eval("xs[2] := 99").unwrap();
    assert_eq!(eval_ints(&i, "xs[2]"), vec![99]);
    // out of range fails
    assert_eq!(eval_ints(&i, "xs[7]"), Vec::<i64>::new());
}

#[test]
fn bang_promotes_lists_and_strings() {
    let i = Interp::new();
    i.eval("xs := [1, 2, 3]").unwrap();
    assert_eq!(eval_ints(&i, "!xs"), vec![1, 2, 3]);
    let chars = i.eval("!\"abc\"").unwrap();
    let strs: Vec<&str> = chars.iter().map(|v| v.as_str().unwrap()).collect();
    assert_eq!(strs, vec!["a", "b", "c"]);
}

#[test]
fn procedures_suspend_multiple_results() {
    let i = Interp::new();
    i.load("def firstN(n) { suspend 1 to n; }").unwrap();
    assert_eq!(eval_ints(&i, "firstN(4)"), vec![1, 2, 3, 4]);
    // generator function used inside a larger expression
    assert_eq!(eval_ints(&i, "firstN(3) * 10"), vec![10, 20, 30]);
}

#[test]
fn procedures_return_once() {
    let i = Interp::new();
    i.load("def add(a, b) { return a + b; }").unwrap();
    assert_eq!(eval_ints(&i, "add(2, 3)"), vec![5]);
}

#[test]
fn return_stops_later_statements() {
    let i = Interp::new();
    i.load("def f() { return 1; write(\"unreachable\"); }")
        .unwrap();
    assert_eq!(eval_ints(&i, "f()"), vec![1]);
    assert!(i.output().is_empty());
}

#[test]
fn fail_statement_terminates_procedure() {
    let i = Interp::new();
    i.load("def f(x) { if x < 0 then fail; return x; }")
        .unwrap();
    assert_eq!(eval_ints(&i, "f(5)"), vec![5]);
    assert_eq!(eval_ints(&i, "f(-1)"), Vec::<i64>::new());
}

#[test]
fn implicit_fail_when_falling_off_end() {
    let i = Interp::new();
    i.load("def noop() { x := 1; }").unwrap();
    assert_eq!(eval_ints(&i, "noop()"), Vec::<i64>::new());
}

#[test]
fn suspend_inside_while_loop() {
    // The Fig. 4 pattern: suspend inside a loop body, no threads.
    let i = Interp::new();
    i.load("def countdown(n) { while n > 0 do { suspend n; n := n - 1; }; }")
        .unwrap();
    assert_eq!(eval_ints(&i, "countdown(4)"), vec![4, 3, 2, 1]);
}

#[test]
fn figure4_chunk_generator() {
    // The paper's chunk(): partition a co-expression into fixed-size lists.
    let i = Interp::new();
    i.load(
        r#"
        def chunk(e) {
            local c;
            c := [];
            while put(c, @e) do {
                if *c >= 3 then { suspend c; c := []; };
            };
            if *c > 0 then { return c; };
        }
        "#,
    )
    .unwrap();
    let chunks = i.eval("chunk(<> (1 to 7))").unwrap();
    let sizes: Vec<i64> = chunks.iter().map(|c| c.size().unwrap()).collect();
    assert_eq!(sizes, vec![3, 3, 1]);
}

#[test]
fn every_loop_accumulates() {
    let i = Interp::new();
    i.eval("total := 0").unwrap();
    i.eval("every total := total + (1 to 10)").unwrap();
    assert_eq!(eval_ints(&i, "total"), vec![55]);
}

#[test]
fn every_with_body() {
    let i = Interp::new();
    i.eval("l := []").unwrap();
    i.eval("every x := 1 to 3 do put(l, x * x)").unwrap();
    assert_eq!(eval_ints(&i, "!l"), vec![1, 4, 9]);
}

#[test]
fn break_and_next_in_loops() {
    let i = Interp::new();
    i.load(
        r#"
        def collect() {
            local out, n;
            out := []; n := 0;
            while n < 100 do {
                n := n + 1;
                if n = 3 then next;
                if n > 5 then break;
                put(out, n);
            };
            return out;
        }
        "#,
    )
    .unwrap();
    let l = i.eval("collect()").unwrap();
    assert_eq!(ints(i.eval("!collect()").unwrap()), vec![1, 2, 4, 5]);
    assert_eq!(l[0].size(), Some(4));
}

#[test]
fn nested_loop_break_is_inner_only() {
    let i = Interp::new();
    i.load(
        r#"
        def grid() {
            local out;
            out := [];
            every i := 1 to 3 do {
                every j := 1 to 3 do {
                    if j > i then break;
                    put(out, i * 10 + j);
                };
            };
            return out;
        }
        "#,
    )
    .unwrap();
    assert_eq!(
        ints(i.eval("!grid()").unwrap()),
        vec![11, 21, 22, 31, 32, 33]
    );
}

#[test]
fn if_then_else_value() {
    let i = Interp::new();
    assert_eq!(eval_ints(&i, "if 1 < 2 then 10 else 20"), vec![10]);
    assert_eq!(eval_ints(&i, "if 2 < 1 then 10 else 20"), vec![20]);
    // if with no else fails when cond fails
    assert_eq!(eval_ints(&i, "if 2 < 1 then 10"), Vec::<i64>::new());
}

#[test]
fn not_expression() {
    let i = Interp::new();
    assert_eq!(i.eval("not (2 < 1)").unwrap().len(), 1);
    assert_eq!(i.eval("not (1 < 2)").unwrap().len(), 0);
}

#[test]
fn limitation_operator() {
    let i = Interp::new();
    assert_eq!(eval_ints(&i, "(1 to 100) \\ 3"), vec![1, 2, 3]);
}

#[test]
fn string_operations() {
    let i = Interp::new();
    let v = i.eval(r#""foo" || "bar""#).unwrap();
    assert_eq!(v[0].as_str(), Some("foobar"));
    assert_eq!(i.eval(r#""abc" == "abc""#).unwrap().len(), 1);
    assert_eq!(i.eval(r#""abc" == "abd""#).unwrap().len(), 0);
    assert_eq!(eval_ints(&i, r#"*"hello""#), vec![5]);
}

#[test]
fn write_captures_output() {
    let i = Interp::new();
    i.eval(r#"write("n=", 42)"#).unwrap();
    i.eval(r#"writes("a")"#).unwrap();
    i.eval(r#"writes("b")"#).unwrap();
    assert_eq!(i.output(), vec!["n=42", "ab"]);
    i.clear_output();
    assert!(i.output().is_empty());
}

#[test]
fn coexpression_create_and_activate() {
    let i = Interp::new();
    i.eval("c := <> (1 to 3)").unwrap();
    assert_eq!(eval_ints(&i, "@c"), vec![1]);
    assert_eq!(eval_ints(&i, "@c"), vec![2]);
    assert_eq!(eval_ints(&i, "@c"), vec![3]);
    assert_eq!(eval_ints(&i, "@c"), Vec::<i64>::new());
}

#[test]
fn coexpression_refresh() {
    let i = Interp::new();
    i.eval("c := <> (1 to 3)").unwrap();
    i.eval("@c").unwrap();
    i.eval("d := ^c").unwrap();
    assert_eq!(eval_ints(&i, "@d"), vec![1]); // refreshed restarts
    assert_eq!(eval_ints(&i, "@c"), vec![2]); // original continues
}

#[test]
fn coexpression_shadowing_in_interp() {
    let i = Interp::new();
    i.eval("x := 10").unwrap();
    i.eval("c := |<> (x + 1)").unwrap();
    i.eval("x := 99").unwrap();
    // the co-expression captured x = 10 at creation
    assert_eq!(eval_ints(&i, "@c"), vec![11]);
}

#[test]
fn bang_unravels_coexpression() {
    let i = Interp::new();
    i.eval("c := <> (5 to 7)").unwrap();
    assert_eq!(eval_ints(&i, "!c"), vec![5, 6, 7]);
}

#[test]
fn size_of_coexpression_counts_results() {
    let i = Interp::new();
    i.eval("c := <> (1 to 10)").unwrap();
    i.eval("@c").unwrap();
    i.eval("@c").unwrap();
    assert_eq!(eval_ints(&i, "*c"), vec![2]);
}

#[test]
fn pipe_runs_in_separate_thread() {
    let i = Interp::new();
    // |> squares the values on a producer thread; ! consumes here.
    i.load("def squares(n) { suspend (1 to n) * (1 to n); }")
        .unwrap();
    let got = eval_ints(&i, "! (|> (1 to 5))");
    assert_eq!(got, vec![1, 2, 3, 4, 5]);
}

#[test]
fn pipeline_expression_from_figure3_shape() {
    // f(!(|> g(!xs))): stage g on its own thread, f downstream.
    let i = Interp::new();
    i.load("def double(x) { return x * 2; }").unwrap();
    i.load("def inc(x) { return x + 1; }").unwrap();
    i.eval("xs := [1, 2, 3]").unwrap();
    assert_eq!(eval_ints(&i, "inc( ! (|> double(!xs)))"), vec![3, 5, 7]);
}

#[test]
fn pipe_shadows_environment() {
    let i = Interp::new();
    i.eval("n := 3").unwrap();
    i.eval("p := |> (1 to n)").unwrap();
    i.eval("n := 99").unwrap(); // must not affect the running pipe
    assert_eq!(eval_ints(&i, "!p"), vec![1, 2, 3]);
}

#[test]
fn native_split_method() {
    let i = Interp::new();
    let words = i.eval(r#""a bb  ccc"::split("\\s+")"#).unwrap();
    let items = words[0].as_list().unwrap().lock().clone();
    let w: Vec<String> = items
        .iter()
        .map(|v| v.as_str().unwrap().to_string())
        .collect();
    assert_eq!(w, vec!["a", "bb", "ccc"]);
}

#[test]
fn registered_host_native_method() {
    let i = Interp::new();
    i.register_native("wordToNumber", |_this, args| {
        let w = args.first()?.as_str()?;
        bigint::BigInt::from_str_radix(w, 36).ok().map(Value::big)
    });
    i.eval("this := &null").unwrap();
    let v = i.eval(r#"this::wordToNumber("zz")"#).unwrap();
    assert_eq!(v[0].as_int(), Some(35 * 36 + 35));
}

/// Run `body` on its own thread and fail (rather than hang) if it does not
/// finish within `secs` seconds.
fn with_watchdog<T: Send + 'static>(secs: u64, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    rx.recv_timeout(std::time::Duration::from_secs(secs))
        .expect("interpreter call did not finish: deadlock?")
}

#[test]
fn natives_run_concurrently() {
    // `meet` is a two-party rendezvous: each call returns its argument once
    // both parties have arrived, or fails after a timeout. Two pipes can
    // only both succeed if their native calls overlap in time.
    let i = Interp::new();
    let arrived = Arc::new((std::sync::Mutex::new(0u32), std::sync::Condvar::new()));
    i.register_native("meet", move |_this, args| {
        let (count, cv) = &*arrived;
        let mut n = count.lock().unwrap();
        *n += 1;
        cv.notify_all();
        let (_guard, timeout) = cv
            .wait_timeout_while(n, std::time::Duration::from_secs(5), |n| *n < 2)
            .unwrap();
        if timeout.timed_out() {
            return None;
        }
        args.first().cloned()
    });
    i.eval("this := &null").unwrap();
    i.eval("ps := [|> this::meet(1), |> this::meet(2)]")
        .unwrap();
    assert_eq!(eval_ints(&i, "@ps[1] + @ps[2]"), vec![3]);
}

#[test]
fn native_may_reenter_interpreter() {
    // A native that evaluates Junicon through a clone of its interpreter.
    let got = with_watchdog(10, || {
        let i = Interp::new();
        let inner = i.clone();
        i.register_native("inner", |_this, _args| Some(Value::from(7)));
        i.register_native("outer", move |_this, _args| {
            inner.eval_first("this::inner()").ok().flatten()
        });
        i.eval("this := &null").unwrap();
        ints(i.eval("this::outer()").unwrap())
    });
    assert_eq!(got, vec![7]);

    // A native that registers another native from inside its call.
    let got = with_watchdog(10, || {
        let i = Interp::new();
        let registrar = i.clone();
        i.register_native("install", move |_this, _args| {
            registrar.register_native("later", |_this, _args| Some(Value::from(5)));
            Some(Value::from(1))
        });
        i.eval("this := &null").unwrap();
        ints(i.eval("this::install() + this::later()").unwrap())
    });
    assert_eq!(got, vec![6]);
}

#[test]
fn registered_host_procedure() {
    let i = Interp::new();
    i.register_proc(ProcValue::native("triple", |args| {
        gde::ops::mul(&gde::func::arg(args, 0), &Value::from(3))
    }));
    assert_eq!(eval_ints(&i, "triple(2 to 4)"), vec![6, 9, 12]);
}

#[test]
fn host_preset_globals_are_visible() {
    let i = Interp::new();
    i.globals().declare(
        "lines",
        Value::list(vec![Value::str("x y"), Value::str("z")]),
    );
    assert_eq!(eval_ints(&i, "*lines"), vec![2]);
}

#[test]
fn recursion_works() {
    let i = Interp::new();
    i.load("def fact(n) { if n <= 1 then return 1; return n * fact(n - 1); }")
        .unwrap();
    assert_eq!(eval_ints(&i, "fact(10)"), vec![3628800]);
    // big result via promotion
    let f30 = i.eval("fact(30)").unwrap();
    assert_eq!(f30[0].to_string(), "265252859812191058636308480000000");
}

#[test]
fn mutual_recursion_via_globals() {
    let i = Interp::new();
    i.load(
        "def isEven(n) { if n = 0 then return 1; return isOdd(n - 1); }\n\
         def isOdd(n) { if n = 0 then fail; return isEven(n - 1); }",
    )
    .unwrap();
    assert_eq!(eval_ints(&i, "isEven(10)"), vec![1]);
    assert_eq!(eval_ints(&i, "isEven(7)"), Vec::<i64>::new());
}

#[test]
fn variadic_missing_args_are_null() {
    let i = Interp::new();
    i.load("def probe(a, b) { if b === &null then return 1; return 2; }")
        .unwrap();
    assert_eq!(eval_ints(&i, "probe(9)"), vec![1]);
    assert_eq!(eval_ints(&i, "probe(9, 9)"), vec![2]);
}

#[test]
fn locals_do_not_leak_between_invocations() {
    let i = Interp::new();
    i.load("def counter() { local n; n := 0; n := n + 1; return n; }")
        .unwrap();
    assert_eq!(eval_ints(&i, "counter()"), vec![1]);
    assert_eq!(eval_ints(&i, "counter()"), vec![1]); // fresh frame
}

#[test]
fn until_loop() {
    let i = Interp::new();
    i.load("def f() { local n; n := 0; until n >= 3 do n := n + 1; return n; }")
        .unwrap();
    assert_eq!(eval_ints(&i, "f()"), vec![3]);
}

#[test]
fn repeat_with_break() {
    let i = Interp::new();
    i.load("def f() { local n; n := 0; repeat { n := n + 1; if n >= 5 then break; }; return n; }")
        .unwrap();
    assert_eq!(eval_ints(&i, "f()"), vec![5]);
}

#[test]
fn blocks_as_expressions() {
    let i = Interp::new();
    assert_eq!(eval_ints(&i, "{ a := 5; b := 6; a + b }"), vec![11]);
}

#[test]
fn table_literal_workflow() {
    let i = Interp::new();
    i.eval("t := table()").unwrap();
    i.eval(r#"t["k"] := 7"#).unwrap();
    assert_eq!(eval_ints(&i, r#"t["k"]"#), vec![7]);
    assert_eq!(eval_ints(&i, "*t"), vec![1]);
    // missing key returns the default (null) — using === to observe
    assert_eq!(i.eval(r#"t["nope"] === &null"#).unwrap().len(), 1);
}

#[test]
fn eval_first_and_failure() {
    let i = Interp::new();
    assert_eq!(i.eval_first("1 to 3").unwrap().unwrap().as_int(), Some(1));
    assert!(i.eval_first("&fail").unwrap().is_none());
}

#[test]
fn parse_errors_surface() {
    let i = Interp::new();
    assert!(i.eval("1 +").is_err());
    assert!(i.load("def f( {").is_err());
}

#[test]
fn interop_gen_into_rust_iteration() {
    // The Fig. 3 for-loop pattern: iterate an embedded generator natively.
    let i = Interp::new();
    let g = i.gen("(1 to 4) * 2").unwrap();
    let doubled: Vec<i64> = gde::GenIter(g).map(|v| v.as_int().unwrap()).collect();
    assert_eq!(doubled, vec![2, 4, 6, 8]);
}

#[test]
fn map_reduce_figure4_end_to_end() {
    // The full Fig. 4 mapReduce written in Junicon, executed by the
    // interpreter: chunk a source, spawn a pipe per chunk, reduce each.
    let i = Interp::new();
    i.load(
        r#"
        def chunk(e) {
            local c;
            c := [];
            while put(c, @e) do {
                if *c >= 4 then { suspend c; c := []; };
            };
            if *c > 0 then { return c; };
        }
        def mapReduce(f, s, r, i) {
            local c, t, tasks;
            tasks := [];
            every c := chunk(s) do {
                t := |> { local x; x := i; every x := r(x, f(!c)); x };
                tasks::add(t);
            };
            suspend ! (! tasks);
        }
        def double(x) { return x * 2; }
        def add(a, b) { return a + b; }
        "#,
    )
    .unwrap();
    let sums = eval_ints(&i, "mapReduce(double, <> (1 to 10), add, 0)");
    // chunks [1..4],[5..8],[9,10] doubled and summed: 20, 52, 38
    assert_eq!(sums, vec![20, 52, 38]);
}

#[test]
fn reversible_assignment_restores_on_backtrack() {
    let i = Interp::new();
    i.eval("x := 1").unwrap();
    // The product backtracks into the reversible assignment when &fail
    // rejects every alternative, undoing the binding.
    assert_eq!(i.eval("(x <- 99) & &fail").unwrap().len(), 0);
    assert_eq!(eval_ints(&i, "x"), vec![1]);
    // Plain := does NOT restore.
    assert_eq!(i.eval("(x := 99) & &fail").unwrap().len(), 0);
    assert_eq!(eval_ints(&i, "x"), vec![99]);
}

#[test]
fn reversible_assignment_commits_on_success() {
    let i = Interp::new();
    i.eval("x := 1").unwrap();
    // Taking only the first result leaves the assignment committed
    // (no backtrack resumed it).
    assert_eq!(
        i.eval_first("(x <- 42) & x").unwrap().unwrap().as_int(),
        Some(42)
    );
    assert_eq!(eval_ints(&i, "x"), vec![42]);
}

#[test]
fn reversible_assignment_searches_alternatives() {
    // The classic use: try bindings until one satisfies a condition.
    let i = Interp::new();
    i.eval("x := 0").unwrap();
    let hits = eval_ints(&i, "(x <- (3 | 8 | 4 | 9)) & (x > 7) & x");
    assert_eq!(hits, vec![8, 9]);
    // Driven to exhaustion, the final backtrack restored the original.
    assert_eq!(eval_ints(&i, "x"), vec![0]);
}
