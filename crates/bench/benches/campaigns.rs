//! E-A / E-B / E-C + T1: regenerates the §V campaign tables.
//!
//! On first run each campaign executes once and prints its report —
//! the reproduction of the paper's §V-A/§V-B/§V-C statistics — then
//! times single-experiment execution per campaign.
//!
//! Run: `cargo bench -p bench --bench campaigns`.

use profipy::case_study::{campaign_a, campaign_b, campaign_c, Campaign};
use profipy::report::CampaignReport;

fn print_campaign_table(campaign: &Campaign) {
    let outcome = campaign
        .workflow
        .run_campaign(&campaign.filter, campaign.prune_by_coverage)
        .expect("campaign runs");
    let report = CampaignReport::from_outcome(&campaign.name, &outcome, &campaign.classifier);
    eprintln!("{}", report.render_text());
}

fn main() {
    eprintln!("\n################ Table I / §V campaign reproduction ################");
    eprintln!("paper: A: 26 points / 13 covered / 12 failures");
    eprintln!("       B: 66 points / all covered / 29 failures");
    eprintln!("       C: 37 points / all covered / 14 failures\n");
    for campaign in [campaign_a(), campaign_b(), campaign_c()] {
        print_campaign_table(&campaign);
    }

    // Ablation (DESIGN.md §8): coverage pruning on vs off for campaign A.
    {
        let a = campaign_a();
        let points = a.workflow.scan();
        let plan = a.workflow.plan(&points, &a.filter);
        let covered = a.workflow.coverage_run(&points).expect("fault-free run");
        let pruned = plan.prune_by_coverage(&covered);
        eprintln!(
            "ablation: coverage pruning reduces campaign A from {} to {} experiments ({}% saved)\n",
            plan.len(),
            pruned.len(),
            100 * (plan.len() - pruned.len()) / plan.len().max(1)
        );
    }

    for campaign in [campaign_a(), campaign_b(), campaign_c()] {
        let points = campaign.workflow.scan();
        let plan = campaign.workflow.plan(&points, &campaign.filter);
        let point = &plan.entries[plan.len() / 2];
        bench::time(
            &format!("campaign_experiment/{}", campaign.name),
            10,
            || campaign.workflow.run_experiment(point),
        );
    }
}
