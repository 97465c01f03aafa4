//! Table III — Accelerator hardware configuration.
//!
//! Prints the per-module area/power budget used by the energy model (taken
//! from the paper's synthesis results) together with the module unit counts
//! and memory-system parameters of the simulated accelerator.

use splat_accel::{AccelConfig, PowerTable};
use splat_metrics::Table;

fn main() {
    println!("# Table III — hardware configuration");
    println!();

    let power = PowerTable::paper();
    let mut table = Table::new(["Module", "Configuration", "Area [mm^2]", "Power [W]"]);
    table.add_row([
        "PM",
        "4",
        &format!("{:.3}", power.pm.area_mm2),
        &format!("{:.3}", power.pm.power_w),
    ]);
    table.add_row([
        "BGM",
        "4",
        &format!("{:.3}", power.bgm.area_mm2),
        &format!("{:.3}", power.bgm.power_w),
    ]);
    table.add_row([
        "GSM",
        "4",
        &format!("{:.3}", power.gsm.area_mm2),
        &format!("{:.3}", power.gsm.power_w),
    ]);
    table.add_row([
        "RM",
        "4",
        &format!("{:.3}", power.rm.area_mm2),
        &format!("{:.3}", power.rm.power_w),
    ]);
    table.add_row([
        "Buffer",
        "4x2x42KB",
        &format!("{:.3}", power.buffer.area_mm2),
        &format!("{:.3}", power.buffer.power_w),
    ]);
    table.add_row([
        "Total",
        "",
        &format!("{:.3}", power.total_area_mm2()),
        &format!("{:.3}", power.total_power_w()),
    ]);
    println!("{}", table.to_markdown());

    let mut params = Table::new(["Parameter", "Value"]);
    for (parameter, value) in AccelConfig::paper().parameter_rows() {
        params.add_row([parameter, &value]);
    }
    println!("{}", params.to_markdown());
    println!("(paper totals: 3.984 mm^2, 1.063 W at 1 GHz)");
}
