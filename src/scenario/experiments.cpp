#include "src/scenario/experiments.hpp"

namespace wcdma::scenario {

using admission::ObjectiveKind;

sim::SystemConfig hotspot_cell_config(std::uint64_t seed) {
  sim::SystemConfig cfg = sim::default_config();
  cfg.layout.rings = 1;  // 7 cells
  cfg.voice.users = 30;
  cfg.data.users = 12;
  cfg.data.mean_reading_s = 1.0;
  cfg.mobility.region_radius_m = cfg.layout.cell_radius_m;
  cfg.sim_duration_s = 50.0;
  cfg.warmup_s = 8.0;
  cfg.seed = seed;
  return cfg;
}

sim::SystemConfig wide_area_config(std::uint64_t seed) {
  sim::SystemConfig cfg = sim::default_config();
  cfg.voice.users = 60;
  cfg.data.users = 16;
  cfg.data.mean_reading_s = 1.5;
  cfg.sim_duration_s = 60.0;
  cfg.warmup_s = 10.0;
  cfg.seed = seed;
  return cfg;
}

const std::vector<std::string>& headline_schedulers() {
  static const std::vector<std::string> names = {"jaba-sd", "jaba-sd-greedy", "fcfs",
                                                 "fcfs-single", "equal-share"};
  return names;
}

sweep::SweepSpec e4_delay_fl() {
  sweep::SweepSpec spec;
  spec.name = "e4-delay-fl";
  spec.base = hotspot_cell_config(4001);
  spec.base.data.forward_fraction = 1.0;  // all downloads
  spec.axes = {sweep::axis_data_users({4, 8, 12, 16, 20, 24}),
               sweep::axis_scheduler(headline_schedulers())};
  spec.replications = 3;
  return spec;
}

sweep::SweepSpec e5_delay_rl() {
  sweep::SweepSpec spec;
  spec.name = "e5-delay-rl";
  spec.base = hotspot_cell_config(4002);
  spec.base.data.forward_fraction = 0.0;  // all uploads
  spec.axes = {sweep::axis_data_users({4, 8, 12, 16, 20, 24}),
               sweep::axis_scheduler(headline_schedulers())};
  spec.replications = 3;
  return spec;
}

sweep::SweepSpec e8_synergy() {
  sweep::SweepSpec spec;
  spec.name = "e8-synergy";
  spec.base = hotspot_cell_config(4008);
  spec.base.data.users = 20;
  spec.axes = {sweep::axis_fixed_mode({0, 3}),
               sweep::axis_scheduler({"jaba-sd", "fcfs-single"})};
  spec.replications = 1;
  return spec;
}

sweep::SweepSpec e10_objectives() {
  sweep::SweepSpec spec;
  spec.name = "e10-objectives";
  spec.base = hotspot_cell_config(4010);
  spec.base.data.users = 20;
  // Compound axis: the paper varies (objective, lambda, mu) jointly, not as
  // a cross product.
  struct Case {
    const char* label;
    ObjectiveKind kind;
    double lambda;
    double mu;
  };
  static const Case kCases[] = {
      {"J1", ObjectiveKind::kJ1MaxRate, 0.0, 0.5},
      {"J2(l=0.5,mu=0.5)", ObjectiveKind::kJ2DelayAware, 0.5, 0.5},
      {"J2(l=2,mu=0.5)", ObjectiveKind::kJ2DelayAware, 2.0, 0.5},
      {"J2(l=10,mu=0.5)", ObjectiveKind::kJ2DelayAware, 10.0, 0.5},
      {"J2(l=2,mu=0.1)", ObjectiveKind::kJ2DelayAware, 2.0, 0.1},
      {"J2(l=2,mu=2.0)", ObjectiveKind::kJ2DelayAware, 2.0, 2.0},
  };
  sweep::Axis axis{"objective", {}};
  for (const Case& c : kCases) {
    axis.values.push_back({c.label, [c](sim::SystemConfig& cfg) {
                             cfg.admission.objective = c.kind;
                             cfg.admission.penalty.lambda = c.lambda;
                             cfg.admission.penalty.mu = c.mu;
                           }});
  }
  spec.axes = {axis};
  spec.replications = 1;
  return spec;
}

sweep::SweepSpec e11_mac_states() {
  sweep::SweepSpec spec;
  spec.name = "e11-mac-states";
  spec.base = hotspot_cell_config(4011);
  spec.base.data.users = 18;
  spec.base.data.mean_reading_s = 3.0;  // long gaps: MAC decays between bursts
  struct Case {
    const char* label;
    double t2, t3, d1, d2;
  };
  static const Case kCases[] = {
      {"no-penalty", 2.0, 10.0, 0.0, 0.0},
      {"default", 2.0, 10.0, 0.040, 0.300},
      {"slow-reacquire", 2.0, 10.0, 0.200, 1.000},
      {"eager-timers", 0.5, 2.0, 0.040, 0.300},
      {"eager+slow", 0.5, 2.0, 0.200, 1.000},
  };
  sweep::Axis timers{"timers", {}};
  for (const Case& c : kCases) {
    timers.values.push_back({c.label, [c](sim::SystemConfig& cfg) {
                               cfg.mac_timers.t2_s = c.t2;
                               cfg.mac_timers.t3_s = c.t3;
                               cfg.mac_timers.d1_s = c.d1;
                               cfg.mac_timers.d2_s = c.d2;
                             }});
  }
  spec.axes = {timers, sweep::axis_objective({ObjectiveKind::kJ2DelayAware,
                                              ObjectiveKind::kJ1MaxRate})};
  spec.replications = 1;
  return spec;
}

sweep::SweepSpec e12a_feedback_delay() {
  sweep::SweepSpec spec;
  spec.name = "e12a-feedback-delay";
  spec.base = hotspot_cell_config(4012);
  spec.base.data.users = 16;
  // Only the fixed-rate PHY decides on fed-back CSI (the adaptive VTAOC
  // path adapts symbol by symbol on the true CSI), so the ablation runs
  // E8's non-adaptive arm, mode 3.
  spec.base.phy.fixed_mode = 3;
  spec.axes = {sweep::axis_feedback_delay_frames({0, 1, 4, 8})};
  spec.replications = 1;
  return spec;
}

sweep::SweepSpec e12b_kappa_margin() {
  sweep::SweepSpec spec;
  spec.name = "e12b-kappa-margin";
  spec.base = hotspot_cell_config(4012);
  spec.base.data.users = 16;
  spec.base.data.forward_fraction = 0.0;  // reverse link: kappa matters there
  spec.axes = {sweep::axis_kappa_margin_db({0.0, 2.0, 6.0})};
  spec.replications = 1;
  return spec;
}

sweep::SweepSpec e12c_scrm_retry() {
  sweep::SweepSpec spec;
  spec.name = "e12c-scrm-retry";
  spec.base = hotspot_cell_config(4012);
  spec.base.data.users = 20;
  spec.axes = {sweep::axis_scrm_retry_s({0.02, 0.26, 1.0})};
  spec.replications = 1;
  return spec;
}

sweep::SweepSpec e12d_reduced_set() {
  sweep::SweepSpec spec;
  spec.name = "e12d-reduced-set";
  spec.base = hotspot_cell_config(4012);
  spec.base.data.users = 16;
  spec.base.active_set.max_size = 3;
  spec.axes = {sweep::axis_reduced_set({1, 2, 3})};
  spec.replications = 1;
  return spec;
}

}  // namespace wcdma::scenario
