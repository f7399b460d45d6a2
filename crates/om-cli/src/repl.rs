//! The interactive exploration shell (`opmap shell`).
//!
//! The deployed Opportunity Map is an interactive GUI: the analyst selects
//! cubes, slices, dices, rolls up, inspects, compares, undoes. This REPL
//! reproduces that loop over a terminal. The core is fully scripted-input
//! testable: `run_repl` reads commands from any `BufRead` and writes to
//! any `Write`.

use std::io::{BufRead, Write};

use om_cube::CubeView;
use om_engine::{Explorer, OpportunityMap};
use om_viz::detailed::{render_detailed, DetailedOptions};
use om_viz::pair_view::{render_pair_heatmap, PairViewOptions};

/// REPL help text.
const REPL_HELP: &str = "\
commands:
  attrs                       list analysis attributes
  select <attr>               load the 2-D cube of one attribute
  select <attr> <attr>        load the 3-D cube of an attribute pair
  show [class-label]          render the current cube (heatmap needs a class)
  slice <attr> <value>        fix an attribute to a value
  rollup <attr>               marginalize an attribute out
  undo                        undo the last operation
  history                     show the operation history
  compare <attr> <v1> <v2> <class>   run the automated comparison
  gi                          general impressions report
  help                        this message
  quit                        leave";

/// Run the exploration shell until `quit`/EOF. Every prompt and response
/// goes to `out`.
///
/// Errors from individual commands are reported and the loop continues;
/// only I/O failure on `out` terminates early.
pub fn run_repl<R: BufRead, W: Write + ?Sized>(om: &OpportunityMap, input: R, out: &mut W) {
    // Pin one store generation for the whole shell session; live
    // ingestion publishing mid-exploration never shifts the ground.
    let snapshot = om.store();
    let mut explorer = Explorer::new(&snapshot);
    let _ = writeln!(
        out,
        "opportunity map explorer — {} attributes, {} records; 'help' for commands",
        om.store().attrs().len(),
        om.dataset().n_rows()
    );
    for line in input.lines() {
        let Ok(line) = line else { break };
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let _ = writeln!(out, "> {line}");
        match tokens.as_slice() {
            [] => {}
            ["quit"] | ["exit"] => break,
            ["help"] => {
                let _ = writeln!(out, "{REPL_HELP}");
            }
            ["attrs"] => {
                for &a in om.store().attrs() {
                    let attr = om.dataset().schema().attribute(a);
                    let _ = writeln!(out, "  {:<24} ({} values)", attr.name(), attr.cardinality());
                }
            }
            ["select", name] => match om.attr_index(name) {
                Ok(attr) => match explorer.select_one(attr) {
                    Ok(_) => {
                        let _ = writeln!(out, "selected 2-D cube of {name}");
                    }
                    Err(e) => {
                        let _ = writeln!(out, "error: {e}");
                    }
                },
                Err(e) => {
                    let _ = writeln!(out, "error: {e}");
                }
            },
            ["select", a_name, b_name] => match (om.attr_index(a_name), om.attr_index(b_name)) {
                (Ok(a), Ok(b)) => match explorer.select_pair(a, b) {
                    Ok(_) => {
                        let _ = writeln!(out, "selected 3-D cube of {a_name} × {b_name}");
                    }
                    Err(e) => {
                        let _ = writeln!(out, "error: {e}");
                    }
                },
                (Err(e), _) | (_, Err(e)) => {
                    let _ = writeln!(out, "error: {e}");
                }
            },
            ["show", rest @ ..] => {
                let Some(cube) = explorer.current() else {
                    let _ = writeln!(out, "error: nothing selected; use 'select' first");
                    continue;
                };
                match cube.n_attr_dims() {
                    1 => match CubeView::from_cube(cube) {
                        Ok(view) => {
                            let _ = writeln!(
                                out,
                                "{}",
                                render_detailed(&view, &DetailedOptions::default())
                            );
                        }
                        Err(e) => {
                            let _ = writeln!(out, "error: {e}");
                        }
                    },
                    2 => {
                        let class_label = rest.first().copied().unwrap_or("");
                        let class = if class_label.is_empty() {
                            Ok(0)
                        } else {
                            om.class_id(class_label).map_err(|e| e.to_string())
                        };
                        match class {
                            Ok(c) => {
                                match render_pair_heatmap(cube, c, &PairViewOptions::default()) {
                                    Ok(text) => {
                                        let _ = writeln!(out, "{text}");
                                    }
                                    Err(e) => {
                                        let _ = writeln!(out, "error: {e}");
                                    }
                                }
                            }
                            Err(e) => {
                                let _ = writeln!(out, "error: {e}");
                            }
                        }
                    }
                    0 => {
                        let margin = cube.class_margin();
                        for (label, count) in cube.class_labels().iter().zip(margin) {
                            let _ = writeln!(out, "  {label:<24} {count}");
                        }
                    }
                    n => {
                        let _ = writeln!(out, "({n}-attribute cube; no renderer)");
                    }
                }
            }
            ["slice", attr_name, value_label] => {
                let r = explorer_dim(&explorer, om, attr_name).and_then(|dim| {
                    let cube = explorer
                        .current()
                        .ok_or_else(|| "no cube selected; `open` one first".to_owned())?;
                    let d = cube
                        .dims()
                        .get(dim)
                        .ok_or_else(|| format!("dimension {dim} is out of range"))?;
                    d.labels
                        .iter()
                        .position(|l| l == value_label)
                        .map(|v| (dim, v as u32))
                        .ok_or_else(|| format!("unknown value {value_label:?} of {attr_name}"))
                });
                match r {
                    Ok((dim, v)) => match explorer.slice(dim, v) {
                        Ok(cube) => {
                            let _ = writeln!(out, "sliced: {} records remain", cube.total());
                        }
                        Err(e) => {
                            let _ = writeln!(out, "error: {e}");
                        }
                    },
                    Err(e) => {
                        let _ = writeln!(out, "error: {e}");
                    }
                }
            }
            ["rollup", attr_name] => match explorer_dim(&explorer, om, attr_name) {
                Ok(dim) => match explorer.rollup(dim) {
                    Ok(cube) => {
                        let _ = writeln!(
                            out,
                            "rolled up: {} attribute dims remain",
                            cube.n_attr_dims()
                        );
                    }
                    Err(e) => {
                        let _ = writeln!(out, "error: {e}");
                    }
                },
                Err(e) => {
                    let _ = writeln!(out, "error: {e}");
                }
            },
            ["undo"] => {
                match explorer.undo() {
                    Some(cube) => {
                        let _ = writeln!(
                            out,
                            "undone; current cube has {} attribute dims",
                            cube.n_attr_dims()
                        );
                    }
                    None => {
                        let _ = writeln!(out, "nothing selected");
                    }
                };
            }
            ["history"] => {
                if explorer.history().is_empty() {
                    let _ = writeln!(out, "(empty)");
                }
                for (i, op) in explorer.history().iter().enumerate() {
                    let _ = writeln!(out, "  {i}: {op:?}");
                }
            }
            ["compare", attr, v1, v2, class] => {
                match om.run_compare_by_name(attr, v1, v2, class, om.exec_ctx(None)) {
                    Ok(result) => {
                        let _ = writeln!(out, "{}", om_compare::report::render(&result, 5));
                    }
                    Err(e) => {
                        let _ = writeln!(out, "error: {e}");
                    }
                }
            }
            ["gi"] => {
                let _ = writeln!(out, "{}", om.gi_report(5));
            }
            other => {
                let _ = writeln!(
                    out,
                    "error: unknown command {:?}; 'help' for commands",
                    other.join(" ")
                );
            }
        }
    }
    let _ = writeln!(out, "bye");
}

/// Resolve an attribute name to the matching dimension index of the
/// explorer's current cube.
fn explorer_dim(
    explorer: &Explorer<'_>,
    om: &OpportunityMap,
    attr_name: &str,
) -> Result<usize, String> {
    let cube = explorer
        .current()
        .ok_or_else(|| "nothing selected; use 'select' first".to_owned())?;
    let attr = om.attr_index(attr_name).map_err(|e| e.to_string())?;
    cube.dims()
        .iter()
        .position(|d| d.attr_index == attr)
        .ok_or_else(|| format!("attribute {attr_name:?} is not a dimension of the current cube"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_engine::EngineConfig;
    use om_synth::paper_scenario;
    use std::io::BufReader;

    fn engine() -> OpportunityMap {
        let (ds, _) = paper_scenario(20_000, 44);
        OpportunityMap::build(ds, EngineConfig::default()).unwrap()
    }

    fn run_script(om: &OpportunityMap, script: &str) -> String {
        let mut out = Vec::new();
        run_repl(om, BufReader::new(script.as_bytes()), &mut out);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn full_exploration_session() {
        let om = engine();
        let script = "\
attrs
select PhoneModel
show
select PhoneModel TimeOfCall
show dropped
slice PhoneModel ph2
show
history
undo
rollup TimeOfCall
compare PhoneModel ph1 ph2 dropped
quit
";
        let text = run_script(&om, script);
        assert!(text.contains("PhoneModel"), "{text}");
        assert!(text.contains("Detailed view: PhoneModel"), "{text}");
        assert!(text.contains("PhoneModel × TimeOfCall"), "{text}");
        assert!(text.contains("sliced:"), "{text}");
        assert!(text.contains("SelectPair"), "{text}");
        assert!(text.contains("undone"), "{text}");
        assert!(text.contains("Rule 1: PhoneModel=ph1"), "{text}");
        assert!(text.trim_end().ends_with("bye"), "{text}");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let om = engine();
        let script = "\
select Bogus
slice PhoneModel ph1
select PhoneModel
slice TimeOfCall morning
frobnicate
show
quit
";
        let text = run_script(&om, script);
        assert!(text.contains("unknown name"), "{text}");
        assert!(text.contains("nothing selected"), "{text}");
        assert!(text.contains("not a dimension"), "{text}");
        assert!(text.contains("unknown command"), "{text}");
        // The session survived to the final show.
        assert!(text.contains("Detailed view"), "{text}");
    }

    #[test]
    fn eof_terminates_cleanly() {
        let om = engine();
        let text = run_script(&om, "attrs\n");
        assert!(text.trim_end().ends_with("bye"));
    }

    #[test]
    fn gi_command_renders() {
        let om = engine();
        let text = run_script(&om, "gi\nquit\n");
        assert!(text.contains("Influential attributes"), "{text}");
    }

    #[test]
    fn zero_dim_cube_shows_class_histogram() {
        let om = engine();
        let text = run_script(&om, "select PhoneModel\nrollup PhoneModel\nshow\nquit\n");
        assert!(text.contains("ended-ok"), "{text}");
    }
}
