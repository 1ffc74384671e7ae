//! Pins `RectangleMenus::build` bit-identical to a reference that runs the
//! full `Design_wrapper` (`WrapperDesign::design`) at every width, on the
//! four ITC'02 SOCs and on synthetic SOCs with and without constraints.

use soctam_schedule::RectangleMenus;
use soctam_soc::{benchmarks, synth::SynthConfig, Soc};
use soctam_wrapper::{CoreTest, ParetoPoint, Rectangle, TamWidth, WrapperDesign};

const CAPS: [TamWidth; 4] = [1, 16, 48, 64];

/// One core's monotonized staircase from a full wrapper design per width:
/// the rectangle offered at each width `1..=cap`, and the Pareto points
/// where the time strictly drops.
fn reference(core: &CoreTest, cap: TamWidth) -> (Vec<Rectangle>, Vec<ParetoPoint>) {
    let useful = core.max_useful_width().min(u64::from(cap)) as TamWidth;
    let mut rects: Vec<Rectangle> = Vec::new();
    let mut pareto = Vec::new();
    let mut best: Option<Rectangle> = None;
    for w in 1..=cap {
        if w <= useful {
            let d = WrapperDesign::design(core, w).unwrap();
            if best.is_none_or(|b| d.test_time() < b.time) {
                best = Some(Rectangle {
                    width: w,
                    effective_width: w,
                    time: d.test_time(),
                    scan_in: d.scan_in(),
                    scan_out: d.scan_out(),
                });
                pareto.push(ParetoPoint {
                    width: w,
                    time: d.test_time(),
                });
            }
        }
        rects.push(Rectangle {
            width: w,
            ..best.unwrap()
        });
    }
    (rects, pareto)
}

fn assert_matches_reference(soc: &Soc) {
    for cap in CAPS {
        let menus = RectangleMenus::build(soc, cap);
        assert_eq!(menus.w_max(), cap);
        assert_eq!(menus.len(), soc.len());
        for (i, core) in soc.cores().iter().enumerate() {
            let menu = menus.menu(i);
            let (rects, pareto) = reference(core.test(), cap);
            let got: Vec<Rectangle> = (1..=cap).map(|w| menu.rect_at(w)).collect();
            assert_eq!(got, rects, "{} core {i} cap {cap}", soc.name());
            assert_eq!(
                menu.pareto(),
                &pareto[..],
                "{} core {i} cap {cap}",
                soc.name()
            );
            assert_eq!(menu.min_time(), rects.last().unwrap().time);
        }
    }
}

#[test]
fn itc02_menus_match_the_full_design_reference() {
    for name in benchmarks::NAMES {
        assert_matches_reference(&benchmarks::by_name(name).unwrap());
    }
}

#[test]
fn synth_menus_match_the_full_design_reference() {
    for seed in 0..24 {
        let cores = 4 + (seed as usize % 29);
        assert_matches_reference(&SynthConfig::new(cores).generate(seed));
        assert_matches_reference(&SynthConfig::new(cores).with_constraints().generate(seed));
    }
}
