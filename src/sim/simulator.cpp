#include "src/sim/simulator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "src/common/assert.hpp"
#include "src/common/serialize.hpp"
#include "src/common/units.hpp"

namespace wcdma::sim {

namespace {

constexpr double kTiny = 1e-30;

power::PowerControlConfig forward_pc_config(const RadioConfig& radio) {
  power::PowerControlConfig cfg;
  cfg.target_sir_db = radio.fch_ebio_target_db;
  cfg.min_power_dbm = -20.0;
  cfg.max_power_dbm = 36.0;  // 4 W per-user forward cap
  return cfg;
}

power::PowerControlConfig reverse_pc_config(const RadioConfig& radio) {
  power::PowerControlConfig cfg;
  cfg.target_sir_db = radio.fch_ebio_target_db;
  cfg.min_power_dbm = -60.0;
  cfg.max_power_dbm = radio.mobile_max_power_dbm;
  return cfg;
}

}  // namespace

Simulator::Simulator(const SystemConfig& config)
    : config_(config),
      layout_(config.layout),
      path_loss_(config.path_loss),
      spreading_(config.spreading),
      policy_(phy::make_vtaoc_modes(config.phy.vtaoc), config.phy.target_ber),
      admission_policy_(
          admission::make_policy(config.admission.policy, config.seed ^ 0x5cedu)),
      rng_(config.seed) {
  config_.validate();

  noise_w_ = common::thermal_noise_watt(config_.spreading.chip_rate_hz,
                                        config_.radio.noise_figure_db);
  l_max_w_ = noise_w_ * common::db_to_linear(config_.radio.rise_over_thermal_db);
  mobile_max_w_ = common::dbm_to_watt(config_.radio.mobile_max_power_dbm);
  fch_pg_ = spreading_.total_processing_gain(config_.spreading.fch_bit_rate);
  fch_sir_target_ = common::db_to_linear(config_.radio.fch_ebio_target_db);

  stations_.resize(layout_.num_cells() *
                   static_cast<std::size_t>(config_.placement.carriers));
  const double idle_w = config_.radio.pilot_power_w + config_.radio.common_power_w;
  for (auto& bs : stations_) {
    bs.forward_w = idle_w;
    bs.received_w = noise_w_;
  }

  // Mobility region spans the whole layout unless the scenario pinned it.
  cell::MobilityConfig mob = config_.mobility;
  if (mob.region_radius_m <= 0.0) mob.region_radius_m = layout_.service_radius_m();

  // Per-cell load scaling: cumulative placement weights for home-cell draws.
  std::vector<double> cum_weights;
  if (!config_.placement.cell_weights.empty()) {
    double sum = 0.0;
    for (double w : config_.placement.cell_weights) {
      sum += w;
      cum_weights.push_back(sum);
    }
  }

  const int total_users = config_.voice.users + config_.data.users;
  state_.init(&layout_, &path_loss_, config_.shadowing, config_.csi, config_.frame_s,
              static_cast<std::size_t>(total_users));
  queues_.init(config_.placement.carriers);
  round_ranges_.assign(static_cast<std::size_t>(config_.placement.carriers) * 2,
                       {0, 0});
  prev_tx_w_.assign(static_cast<std::size_t>(total_users), 0.0);
  user_carrier_.assign(static_cast<std::size_t>(total_users), 0);
  injected_bits_.assign(static_cast<std::size_t>(total_users), -1.0);

  sim_threads_ = config_.sim_threads == 0
                     ? common::default_thread_count()
                     : static_cast<std::size_t>(config_.sim_threads);
  if (sim_threads_ < 1) sim_threads_ = 1;
  // sim_threads_ is the SHARD count (fixed partitioning, so results are
  // identical everywhere); the worker pool is additionally capped at the
  // hardware concurrency -- oversubscribing a CPU-bound loop only adds
  // context switches.  The calling thread claims shards too, so the pool
  // holds min(shards, cores) - 1 workers; with one core the shards simply
  // run in order on the caller, at sequential speed.
  pool_ = std::make_unique<common::ThreadPool>(
      std::min(sim_threads_, common::default_thread_count()) - 1);

  users_.reserve(static_cast<std::size_t>(total_users));
  const auto fl_cfg = forward_pc_config(config_.radio);
  const auto rl_cfg = reverse_pc_config(config_.radio);

  for (int i = 0; i < total_users; ++i) {
    common::Rng user_rng = rng_.fork(0x1000 + static_cast<std::uint64_t>(i));
    users_.emplace_back(config_.active_set, layout_.num_cells(), fl_cfg, rl_cfg);
    User& u = users_.back();
    u.id = i;
    u.is_data = i >= config_.voice.users;
    u.carrier = i % config_.placement.carriers;

    // Per-cell placement: sample the home cell by weight and confine the
    // user to a disc around it.  The draw comes from its own fork so the
    // legacy uniform path consumes exactly the streams it always did.
    cell::MobilityConfig user_mob = mob;
    u.home_cell = layout_.nearest_cell(mob.region_center);
    if (!cum_weights.empty()) {
      const double pick = user_rng.fork(5).uniform() * cum_weights.back();
      std::size_t home = 0;
      while (home + 1 < cum_weights.size() && pick >= cum_weights[home]) ++home;
      u.home_cell = home;
      user_mob.region_center = layout_.center(home);
      user_mob.region_radius_m =
          config_.placement.home_radius_scale * layout_.cell_radius_m();
    }

    // Corridor mobility spans the whole road regardless of the home cell;
    // disc-bounded models roam the (possibly per-home-cell) region.
    u.mobility = cell::make_mobility(
        mob.kind == cell::MobilityKind::kCorridor ? mob : user_mob, user_rng.fork(1));
    const double speed = u.mobility->speed_mps();
    const double doppler_hz =
        common::doppler_hz(std::max(speed, 0.3), config_.carrier_hz);
    state_.init_user(static_cast<std::size_t>(i), user_rng, doppler_hz);

    if (u.is_data) {
      traffic::DataTrafficConfig dc;
      dc.pareto_alpha = config_.data.pareto_alpha;
      dc.min_burst_bytes = config_.data.min_burst_bytes;
      dc.max_burst_bytes = config_.data.max_burst_bytes;
      dc.mean_reading_s = config_.data.mean_reading_s;
      u.data.emplace(dc, user_rng.fork(2));
      const int data_index = i - config_.voice.users;
      u.forward_dir = data_index <
                      static_cast<int>(std::lround(config_.data.forward_fraction *
                                                   config_.data.users));
      u.priority = (user_rng.fork(3).uniform() < config_.data.high_priority_fraction)
                       ? config_.data.priority_boost
                       : 0.0;
      u.mac = mac::MacStateMachine(config_.mac_timers, mac::MacState::kDormant);
      if (config_.phy.fixed_mode > 0) {
        u.fixed = std::make_unique<phy::FixedRateAdapter>(
            &policy_, config_.phy.fixed_mode, config_.phy.feedback_delay_frames,
            config_.phy.feedback_error_db, user_rng.fork(4));
      }
    } else {
      traffic::VoiceConfig vc;
      vc.mean_on_s = config_.voice.mean_on_s;
      vc.mean_off_s = config_.voice.mean_off_s;
      u.voice.emplace(vc, user_rng.fork(2));
    }
  }

  far_field_.init(&layout_, &path_loss_, config_.shadowing, config_.csi,
                  users_.size(), config_.placement.carriers, state_.culls());
  if (far_field_.active()) {
    far_anchor_.resize(users_.size());
    far_station_w_.resize(stations_.size());
  }
}

std::int64_t Simulator::total_frames() const {
  return config_.total_frames();
}

SimMetrics Simulator::run() {
  const std::int64_t frames = total_frames();
  for (std::int64_t f = 0; f < frames; ++f) step_frame();
  return metrics_;
}

void Simulator::step_frame() {
  state_.advance_frame();
  // The far-field aggregates refresh first, from last frame's (frozen)
  // station powers and candidate sets, so the sharded passes below read
  // per-link terms that stay constant for the whole frame.
  maybe_refresh_far_field();
  // Channel stepping and the forward measurements fuse into one sharded
  // pass: measurement of user i depends only on i's own fresh link state
  // plus last frame's (frozen) station powers, never on other users.
  step_mobility_and_channel();
  // The reverse gather reads the transpose of the post-refresh candidate
  // sets, so its rebuild runs after the fused pass.
  state_.refresh_transpose();
  step_reverse_measurements();
  step_power_control();
  step_traffic();
  // lint-allow(DET-WALLCLOCK): start of the bench-only span, set only when timing
  std::chrono::steady_clock::time_point t0;
  if (decision_timing_) {
    // lint-allow(DET-WALLCLOCK): latency bench instrumentation; the measured
    // durations feed BENCH_decision_latency.json only, never simulation state
    t0 = std::chrono::steady_clock::now();
  }
  build_frame_context();
  for (int c = 0; c < config_.placement.carriers; ++c) {
    run_admission(mac::LinkDirection::kForward, c);
    run_admission(mac::LinkDirection::kReverse, c);
  }
  if (decision_timing_) {
    // lint-allow(DET-WALLCLOCK): closes the bench-only timing span above
    const auto t1 = std::chrono::steady_clock::now();
    decision_times_s_.push_back(std::chrono::duration<double>(t1 - t0).count());
    decisions_made_ += static_cast<std::int64_t>(frame_ctx_.requests.size());
  }
  step_transmission();
  update_transmit_powers();
  collect_frame_metrics();
  now_s_ += config_.frame_s;
  ++frame_count_;
#ifndef NDEBUG
  if (frame_count_ % kInvariantCheckPeriod == 0) validate_invariants();
#endif
}

void Simulator::for_shards(std::size_t n,
                           const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  // Fixed contiguous ranges derived only from (n, sim_threads_): the split
  // itself never depends on the worker count, and no shard shares state, so
  // every execution order produces identical results.
  const std::size_t shards = std::min(sim_threads_, n);
  const std::size_t chunk = (n + shards - 1) / shards;
  pool_->parallel_for(shards, [&fn, chunk, n](std::size_t s) {
    const std::size_t begin = s * chunk;
    fn(begin, std::min(begin + chunk, n));
  });
}

void Simulator::maybe_refresh_far_field() {
  if (!far_field_.active()) return;
  far_refresh_left_s_ -= config_.frame_s;
  if (far_refresh_left_s_ > 0.0) return;
  // The first frame's candidate sets are filled by the fused pass after
  // this refresh; leave the timer expired and retry next frame, so the
  // aggregates stay zero for exactly one frame -- the culled providers'
  // pre-far-field behaviour.  frame_count_ counts completed frames, so the
  // gate also holds for a world restored at frame 0 or 1.
  if (frame_count_ == 0) return;
  far_refresh_left_s_ = config_.csi.refresh_interval_s;
  // Anchors are the active-set primaries, sampled now and frozen until the
  // next refresh; station powers are last frame's (the same lagged
  // fixed-point background every measurement uses).
  for (std::size_t i = 0; i < users_.size(); ++i) {
    far_anchor_[i] = static_cast<std::uint32_t>(users_[i].active_set.primary());
  }
  for (std::size_t s = 0; s < stations_.size(); ++s) {
    far_station_w_[s] = stations_[s].forward_w;
  }
  far_field_.refresh(state_, far_anchor_.data(), far_station_w_.data());
}

void Simulator::step_mobility_and_channel() {
  // Per-user work only (mobility, candidate refresh, per-link RNG streams,
  // then this user's forward measurements): safe and bit-identical under
  // any sharding.  Each shard walks its users in groups small enough that
  // a group's fresh gains are still in L1 when its measurements read them:
  // the group moves, FrameState steps all of its links in cross-user
  // blocks, then each user measures.
  constexpr std::size_t kGroup = 16;
  for_shards(users_.size(), [this](std::size_t begin, std::size_t end) {
    cell::Point pos[kGroup];
    double moved[kGroup];
    const std::vector<std::size_t>* members[kGroup];
    for (std::size_t first = begin; first < end; first += kGroup) {
      const std::size_t last = std::min(first + kGroup, end);
      for (std::size_t i = first; i < last; ++i) {
        User& u = users_[i];
        moved[i - first] = u.mobility->step(config_.frame_s);
        pos[i - first] = u.mobility->position();
        members[i - first] = &u.active_set.members();
      }
      state_.step_users(first, last, pos, moved, members);
      for (std::size_t i = first; i < last; ++i) forward_measure_user(i);
    }
  });
}

void Simulator::forward_measure_user(std::size_t i) {
  User& u = users_[i];
  // Only the user's own carrier contributes interference: other carriers
  // are separate frequencies.  Only candidate cells carry this frame's
  // gains (every cell on `exhaustive`), so the loops read no other link.
  const std::vector<std::size_t>& cells = state_.cells_for(i);
  const double* gain = state_.gain_mean_row(i);
  double* pilot = state_.pilot_fl_row(i);
  // Far-field aggregate lane: the ring-summed interference of every
  // non-candidate cell enters next to thermal noise (exactly 0.0 on the
  // exhaustive path, so the default trajectory stays bit-identical).
  double total = noise_w_ + state_.far_fl_w(i);
  for (const std::size_t k : cells) {
    total += stations_[station_index(k, u.carrier)].forward_w * gain[k];
  }
  // Hand-off in the goldens' dB domain, converting only the pilots whose
  // dB value can matter.  Every member is a candidate: the refresh keeps
  // the members, and the update adds only listed cells.
  for (const std::size_t k : cells) {
    pilot[k] = config_.radio.pilot_power_w * gain[k] / total;
  }
  u.active_set.update_linear(pilot, cells, kTiny, config_.frame_s);

  // Own-cell orthogonality credit on the primary leg.
  const std::size_t prim = u.active_set.primary();
  const double own = stations_[station_index(prim, u.carrier)].forward_w * gain[prim];
  u.fwd_interference_eff_w = total - (1.0 - config_.radio.orthogonality_loss) * own;
  WCDMA_DEBUG_ASSERT(u.fwd_interference_eff_w > 0.0);
}

void Simulator::step_reverse_measurements() {
  // Reverse rise as a per-station GATHER over the candidate transpose: each
  // station sums its contributing users in ascending user order -- the same
  // additions, in the same order, as the legacy sequential scatter, which
  // is what makes the shard split over cells bit-identical for any thread
  // count (no shared accumulators).
  const int carriers = config_.placement.carriers;
  for_shards(layout_.num_cells(), [this, carriers](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      for (int c = 0; c < carriers; ++c) {
        // Far-field term next to thermal noise (0.0 while inactive, keeping
        // the default path bit-identical); candidate contributors add their
        // exact per-link terms in the gather below.
        stations_[station_index(k, c)].received_w =
            noise_w_ + far_field_.reverse_far_w(k, c);
      }
      const std::uint32_t* contributors = state_.users_of_cell_begin(k);
      const std::size_t n = state_.users_of_cell_count(k);
      for (std::size_t j = 0; j < n; ++j) {
        const std::uint32_t i = contributors[j];
        const double tx = prev_tx_w_[i];
        if (tx <= 0.0) continue;
        stations_[station_index(k, user_carrier_[i])].received_w +=
            tx * state_.gain_mean(i, k);
      }
    }
  });
}

void Simulator::step_power_control() {
  // Pass A -- scalar SIR measurement.  Every measured SIR lands in a
  // contiguous lane instead of converting to dB inline.  All reads are last
  // frame's powers (received_w, fwd_interference_eff_w, power_watt caches)
  // and no user reads another user's loop state, so deferring the loop
  // updates to pass C changes nothing.
  pc_entries_.clear();
  pc_sir_linear_.clear();
  for (std::size_t i = 0; i < users_.size(); ++i) {
    User& u = users_[i];
    u.fch_on = u.is_data
                   ? (u.has_pending || u.burst.active ||
                      u.mac.state() == mac::MacState::kActive ||
                      u.mac.state() == mac::MacState::kControlHold)
                   : u.voice_active;
    if (!u.fch_on) {
      u.fch_sir_linear = 0.0;
      continue;
    }
    // Power control tracks the *local-mean* channel (path loss + shadowing):
    // the paper assigns the fast-fading component to the adaptive PHY
    // ("the fast fading component (Xl) is handled by the VTAOC system"),
    // and a per-frame loop that chased Rayleigh fades would attempt the
    // divergent E[1/h] inversion.
    const std::size_t prim = u.active_set.primary();
    const double gain = state_.gain_mean(i, prim);
    // Every active user transmits a reverse pilot + FCH: its FCH Eb/I0 at
    // the primary BS drives the reverse loop.
    const double fch_tx = u.rl_pc.power_watt() * config_.admission.zeta_fch_pilot_ratio;
    const double rl_sir = std::max(
        fch_tx * gain * fch_pg_ /
            std::max(stations_[station_index(prim, u.carrier)].received_w, kTiny) *
            u.active_set.reverse_adjustment(),
        kTiny);
    const auto user = static_cast<std::uint32_t>(i);
    if (u.is_data && !u.forward_dir) {
      // Reverse-link data user: that loop is its FCH power control.
      u.fch_sir_linear = rl_sir;
      pc_entries_.push_back({user, PcKind::kRlData});
      pc_sir_linear_.push_back(rl_sir);
      continue;
    }
    // Forward FCH power control (voice users and forward data users), then
    // the reverse loop that tracks their pilot.
    const double sir =
        u.fl_pc.power_watt() * gain * fch_pg_ / std::max(u.fwd_interference_eff_w, kTiny);
    u.fch_sir_linear = std::max(sir, kTiny);
    pc_entries_.push_back({user, PcKind::kForward});
    pc_sir_linear_.push_back(u.fch_sir_linear);
    pc_entries_.push_back({user, PcKind::kRlPilot});
    pc_sir_linear_.push_back(rl_sir);
  }

  // Pass B -- every linear -> dB conversion this frame, as one lane.
  const std::size_t n = pc_entries_.size();
  pc_sir_db_.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    pc_sir_db_[j] = common::linear_to_db(pc_sir_linear_[j]);
  }

  // Pass C -- scalar loop stepping + saturation/voice metrics, ascending
  // user order (the entry order), queueing the dBm -> W refresh.
  pc_dbm_.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    User& u = users_[pc_entries_[j].user];
    const double sir_db = pc_sir_db_[j];
    switch (pc_entries_[j].kind) {
      case PcKind::kRlData:
        u.rl_pc.update_db(sir_db);
        if (u.rl_pc.saturated() && !in_warmup()) ++metrics_.mobile_power_saturations;
        pc_dbm_[j] = u.rl_pc.power_dbm() - 30.0;  // dBm -> dBW for the lane
        break;
      case PcKind::kForward:
        u.fl_pc.update_db(sir_db);
        if (u.fl_pc.saturated() && !in_warmup()) ++metrics_.bs_power_saturations;
        if (!u.is_data && !in_warmup()) {
          metrics_.voice_sir_error_db.add(sir_db - config_.radio.fch_ebio_target_db);
        }
        pc_dbm_[j] = u.fl_pc.power_dbm() - 30.0;
        break;
      case PcKind::kRlPilot:
        u.rl_pc.update_db(sir_db);
        pc_dbm_[j] = u.rl_pc.power_dbm() - 30.0;
        break;
    }
  }

  // Pass D -- every dB -> W refresh as one lane, then commit the cached
  // wattages.  Nothing reads power_watt() between update_db and here.
  pc_watt_.resize(n);
  for (std::size_t j = 0; j < n; ++j) pc_watt_[j] = common::db_to_linear(pc_dbm_[j]);
  for (std::size_t j = 0; j < n; ++j) {
    User& u = users_[pc_entries_[j].user];
    if (pc_entries_[j].kind == PcKind::kForward) {
      u.fl_pc.set_power_watt(pc_watt_[j]);
    } else {
      u.rl_pc.set_power_watt(pc_watt_[j]);
    }
  }
}

void Simulator::step_traffic() {
  const bool ramped = config_.load_ramp.enabled();
  const bool external = traffic_mode_ == TrafficMode::kExternal;
  for (auto& u : users_) {
    if (u.voice) {
      u.voice_active = u.voice->step(config_.frame_s);
    }
    if (u.data) {
      // Arrivals come from the user's Pareto source (internal mode) or the
      // injection buffer the service filled before this frame (external
      // mode); either way they enter the queue HERE, in ascending user
      // order, because step_power_control() already read has_pending this
      // frame -- injecting at submit time would perturb the FCH gating.
      std::optional<double> bits;
      if (external) {
        double& slot = injected_bits_[static_cast<std::size_t>(u.id)];
        if (slot >= 0.0) {
          bits = slot;
          slot = -1.0;
        }
      } else {
        // Flash-crowd knob: the ramp multiplies the arrival intensity of
        // data users homed in the ramped cells by scaling the reading-time
        // clock.
        const double dt =
            ramped ? config_.frame_s * config_.load_ramp.scale(now_s_, u.home_cell)
                   : config_.frame_s;
        if (const auto bytes = u.data->step(dt)) bits = *bytes * 8.0;
      }
      if (bits) {
        WCDMA_DEBUG_ASSERT(!u.has_pending && !u.burst.active);
        u.has_pending = true;
        u.pending_bits = *bits;
        u.pending_arrival_s = now_s_;
        queues_.add(u.id, u.carrier, u.forward_dir);
        if (!in_warmup()) ++metrics_.requests_seen;
        if (arrival_observer_) arrival_observer_(u.id, *bits);
      }
      u.mac.step(config_.frame_s, u.burst.active && u.burst.setup_left_s <= 0.0);
    }
  }
}

double Simulator::sch_mean_csi(const User& u) const {
  // Eq. (3)-(5): the SCH runs gamma_s above the FCH symbol operating point;
  // the local-mean SCH CSI follows the *achieved* FCH Eb/I0 (power control
  // holds it near target; lag/caps show up as lower CSI).
  const double fch_es =
      std::max(u.fch_sir_linear, 0.05 * fch_sir_target_) * config_.spreading.fch_throughput;
  return config_.spreading.gamma_s * fch_es;
}

double Simulator::delta_beta(const User& u) const {
  const double eps = std::max(sch_mean_csi(u), 1e-6);
  double beta_s;
  if (u.fixed) {
    beta_s = policy_.fixed_mode_avg_throughput_rayleigh(eps, u.fixed->fixed_mode());
  } else {
    beta_s = policy_.avg_throughput_rayleigh(eps);
  }
  // Clamp: a zero average throughput would make the request unschedulable
  // and Eq. 24 ill-defined; floor at 2% of the FCH throughput.
  beta_s = std::max(beta_s, 0.02 * config_.spreading.fch_throughput);
  return beta_s / config_.spreading.fch_throughput;
}

int Simulator::mobile_tx_upper_bound(const User& u) const {
  // Reverse-link SGR cap from the mobile's power budget: total TX =
  // pilot * (1 + zeta + gamma_s * m * zeta) <= max.
  const double pilot = u.rl_pc.power_watt();
  const double max_w = mobile_max_w_;
  const double zeta = config_.admission.zeta_fch_pilot_ratio;
  const double room = max_w / std::max(pilot, kTiny) - 1.0 - zeta;
  if (room <= 0.0) return 0;
  return static_cast<int>(std::floor(room / (config_.spreading.gamma_s * zeta)));
}

std::size_t Simulator::coverage_bin(const User& u) const {
  const std::size_t prim = u.active_set.primary();
  const double d = layout_.distance_to_cell(u.mobility->position(), prim);
  const double frac = d / (1.2 * layout_.cell_radius_m());
  const auto bin = static_cast<std::size_t>(frac * static_cast<double>(kCoverageBins));
  return std::min(bin, kCoverageBins - 1);
}

void Simulator::build_frame_context() {
  admission::FrameContext& ctx = frame_ctx_;
  ctx.now_s = now_s_;
  ctx.num_cells = layout_.num_cells();
  ctx.carriers = config_.placement.carriers;
  ctx.p_max_watt = config_.radio.bs_max_power_w;
  ctx.l_max_watt = l_max_w_;
  ctx.gamma_s = config_.spreading.gamma_s;
  ctx.kappa_linear = common::db_to_linear(config_.admission.kappa_margin_db);
  ctx.objective = config_.admission.objective;
  ctx.penalty = config_.admission.penalty;
  ctx.timers = config_.mac_timers;
  ctx.fch_bit_rate = config_.spreading.fch_bit_rate;
  ctx.min_burst_s = config_.admission.min_burst_s;
  ctx.max_sgr = config_.spreading.max_sgr;

  ctx.forward_load_watt.resize(stations_.size());
  ctx.reverse_interference_watt.resize(stations_.size());
  for (std::size_t s = 0; s < stations_.size(); ++s) {
    ctx.forward_load_watt[s] = stations_[s].forward_w;
    ctx.reverse_interference_watt[s] = stations_[s].received_w;
  }

  // One request bucket per (carrier, direction) scheduling round, each in
  // ascending user-id order -- exactly the subset (and subset order) the
  // legacy O(users) scan produced for that round.
  ctx.requests.clear();
  pending_users_.clear();
  for (int c = 0; c < config_.placement.carriers; ++c) {
    for (const bool fwd : {true, false}) {
      const std::size_t start = ctx.requests.size();
      for (const int user_id : queues_.bucket(fwd, c)) {
        User& u = users_[static_cast<std::size_t>(user_id)];
        WCDMA_DEBUG_ASSERT(u.is_data && u.has_pending && !u.burst.active);
        WCDMA_DEBUG_ASSERT(u.carrier == c && u.forward_dir == fwd);
        if (now_s_ < u.next_eligible_s) continue;  // SCRM persistence gate

        admission::FrameRequest r;
        r.user = u.id;
        r.carrier = u.carrier;
        r.forward = u.forward_dir;
        r.q_bits = u.pending_bits;
        r.waiting_s = now_s_ - u.pending_arrival_s;
        r.priority = u.priority;
        r.delta_beta = delta_beta(u);
        r.fch_power_watt = u.fl_pc.power_watt();
        r.pilot_tx_watt = u.rl_pc.power_watt();
        r.alpha_fl = u.active_set.forward_adjustment();
        r.alpha_rl = u.active_set.reverse_adjustment();
        r.zeta = config_.admission.zeta_fch_pilot_ratio;
        const std::size_t i = static_cast<std::size_t>(u.id);
        const auto& members = u.active_set.members();
        const std::size_t reduced_n = u.active_set.reduced_count();
        for (std::size_t j = 0; j < reduced_n; ++j) {
          r.reduced_set.push_back({members[j], state_.gain_mean(i, members[j])});
        }
        if (u.forward_dir) {
          r.tx_cap = config_.spreading.max_sgr;
        } else {
          // SCRM: the kMaxScrmPilots strongest forward pilots (footnote 6),
          // plus the reverse SGR cap from the mobile's power budget.
          std::vector<std::pair<double, std::size_t>> ranked;
          for (const std::size_t k : state_.cells_for(i)) {
            ranked.push_back({state_.pilot_fl(i, k), k});
          }
          std::sort(ranked.begin(), ranked.end(),
                    [](const auto& a, const auto& b) { return a.first > b.first; });
          const std::size_t n_report = std::min(ranked.size(), mac::kMaxScrmPilots);
          for (std::size_t n = 0; n < n_report; ++n) {
            r.scrm_pilots.push_back({ranked[n].second, ranked[n].first});
          }
          r.tx_cap = mobile_tx_upper_bound(u);
        }
        ctx.requests.push_back(std::move(r));
        pending_users_.push_back(&u);
      }
      round_ranges_[round_index(c, fwd)] = {start, ctx.requests.size()};
    }
  }
}

void Simulator::run_admission(mac::LinkDirection direction, int carrier) {
  // A request snapshot matches exactly one (carrier, direction) round per
  // frame, so rounds never see each other's requests.  The round's requests
  // sit contiguously in frame_ctx_.requests (built bucket-by-bucket).
  const bool fwd = direction == mac::LinkDirection::kForward;
  const auto [start, end] = round_ranges_[round_index(carrier, fwd)];
  if (start == end) return;
  round_scratch_.clear();
  for (std::size_t i = start; i < end; ++i) round_scratch_.push_back(i);

  const std::vector<admission::PolicyGrant> grants =
      admission_policy_->decide(frame_ctx_, direction, carrier, round_scratch_);

  // Scatter the grants, then apply in request order (deterministic).  A
  // policy may only grant requests it was handed this round; the scratch
  // arrays are round-local (indexed relative to `start`).
  grant_m_scratch_.assign(end - start, 0);
  grant_carrier_scratch_.assign(end - start, carrier);
  for (const admission::PolicyGrant& g : grants) {
    WCDMA_ASSERT(g.request >= start && g.request < end &&
                 "policy granted a request outside its round");
    WCDMA_ASSERT(g.m > 0 && g.m <= frame_ctx_.requests[g.request].tx_cap);
    WCDMA_ASSERT(carrier_in_range(g.carrier));
    grant_m_scratch_[g.request - start] = g.m;
    grant_carrier_scratch_[g.request - start] = g.carrier;
  }

  int granted = 0;
  for (std::size_t idx = start; idx < end; ++idx) {
    User& u = *pending_users_[idx];
    const int m = grant_m_scratch_[idx - start];
    const int serving_carrier = grant_carrier_scratch_[idx - start];
    if (m <= 0) {
      u.next_eligible_s = now_s_ + config_.admission.scrm_retry_s;
      continue;
    }
    // The request leaves its queue the moment it becomes a burst; on an
    // inter-carrier hand-down this must happen before the carrier moves.
    queues_.remove(u.id, u.carrier, u.forward_dir);
    if (serving_carrier != u.carrier) {
      // Inter-carrier hand-down: the burst (and the user's FCH) moves to
      // the granting carrier's interference domain.
      u.carrier = serving_carrier;
      if (!in_warmup()) ++metrics_.carrier_hand_downs;
    }
    const double waited = now_s_ - u.pending_arrival_s;
    u.burst.active = true;
    u.burst.m = m;
    u.burst.remaining_bits = u.pending_bits;
    u.burst.arrival_s = u.pending_arrival_s;
    u.burst.setup_left_s = mac::setup_delay_for_wait(config_.mac_timers, waited);
    u.burst.distance_bin = coverage_bin(u);
    u.has_pending = false;
    ++granted;
    if (!in_warmup()) {
      ++metrics_.grants;
      // requests_seen's predicate, so grant_rate() compares like with like.
      if (!(u.pending_arrival_s < config_.warmup_s)) ++metrics_.requests_granted;
      metrics_.queue_delay_s.add(waited);
      metrics_.granted_sgr.add(static_cast<double>(m));
    }
  }
  if (granted == 0 && !in_warmup()) ++metrics_.reject_rounds;
}

void Simulator::step_transmission() {
  for (std::size_t i = 0; i < users_.size(); ++i) {
    User& u = users_[i];
    if (!u.burst.active) continue;
    if (u.burst.setup_left_s > 0.0) {
      u.burst.setup_left_s -= config_.frame_s;
      continue;
    }
    // Instantaneous SCH CSI (Eq. 3): gamma = Xl * eps, the Rayleigh power
    // factor of the serving link over the local-mean operating point that
    // power control maintains.
    const std::size_t prim = u.active_set.primary();
    const double true_csi = sch_mean_csi(u) * state_.fading_factor(i, prim);
    phy::FrameOutcome out;
    if (u.fixed) {
      // Non-adaptive baseline: the whole frame is committed to one mode on
      // frame-old CSI; staleness produces real BER violations.
      out = u.fixed->on_frame(true_csi);
    } else {
      // Symbol-by-symbol VTAOC (Section 2.2): a 20 ms frame spans many
      // per-symbol adaptation decisions, so the frame's delivered
      // throughput is the Rayleigh ensemble average at the local-mean
      // operating point, and the constant-BER property holds by
      // construction (footnote 1).  The instantaneous selection below is
      // kept as the representative symbol for mode-occupancy statistics.
      const phy::ModeDecision representative = policy_.select(true_csi);
      out.mode = representative.mode;
      out.throughput = policy_.avg_throughput_rayleigh(sch_mean_csi(u));
      out.realized_ber = policy_.target_ber();
      out.ber_violation = false;
    }
    if (!in_warmup()) {
      ++metrics_.sch_frames;
      if (out.mode == 0) {
        ++metrics_.sch_outage_frames;
      } else if (static_cast<std::size_t>(out.mode) < metrics_.mode_frames.size()) {
        ++metrics_.mode_frames[static_cast<std::size_t>(out.mode)];
      }
      if (out.ber_violation) ++metrics_.ber_violation_frames;
    }
    // Fixed-PHY frames transmitted far above the BER target (stale feedback
    // during a fade) blow their error budget and are retransmitted by ARQ:
    // no payload drains.  A 2x margin reflects the FEC slack around the
    // operating point; marginal exceedances still decode.  The adaptive
    // VTAOC path never erases (constant BER by construction).
    const bool frame_erased =
        out.mode > 0 && out.realized_ber > 2.0 * policy_.target_ber();
    const bool delivers = u.fixed ? (out.mode > 0 && !frame_erased) : true;
    if (delivers) {
      // Eq. 4: Rs = Rf * m * beta_s / beta_f, integrated over the frame.
      const double bits =
          spreading_.sch_bit_rate(u.burst.m, out.throughput) * config_.frame_s;
      u.burst.remaining_bits -= bits;
      if (!in_warmup()) metrics_.data_bits_delivered += std::min(bits, bits + u.burst.remaining_bits);
    }
    if (u.burst.remaining_bits <= 0.0) {
      const double delay = now_s_ + config_.frame_s - u.burst.arrival_s;
      if (!in_warmup()) {
        metrics_.burst_delay_s.add(delay);
        metrics_.delay_hist.add(delay);
        metrics_.delay_by_distance[u.burst.distance_bin].add(delay);
      }
      u.burst = Burst{};
      // External mode never consumed the source's arrival cycle, so there
      // is no in-flight burst to complete on it.
      if (traffic_mode_ == TrafficMode::kInternal) u.data->notify_burst_done();
    }
  }
}

void Simulator::update_transmit_powers() {
  const double idle_w = config_.radio.pilot_power_w + config_.radio.common_power_w;
  for (auto& bs : stations_) bs.forward_w = idle_w;

  for (std::size_t i = 0; i < users_.size(); ++i) {
    User& u = users_[i];
    // Data users between bursts hold only the low-rate DCCH (Control Hold,
    // Fig. 3): a fraction of the full-rate FCH power.  The full FCH comes
    // up with the burst; the measurement sub-layer prices SCH grants off
    // the full-rate FCH power, which is what will actually be transmitted.
    const bool bursting = u.burst.active;
    const double fch_scale =
        (u.is_data && !bursting) ? config_.radio.dcch_fraction : 1.0;

    // Forward contributions: FCH from every active-set leg; SCH (forward
    // bursts) from every reduced-active-set leg at gamma_s * m * FCH power
    // (Eq. 5-6).
    if (u.fch_on && (!u.is_data || u.forward_dir)) {
      const double fch_w = u.fl_pc.power_watt() * fch_scale;
      const auto& members = u.active_set.members();
      for (std::size_t k : members)
        stations_[station_index(k, u.carrier)].forward_w += fch_w;
      if (bursting && u.is_data) {
        const double sch_w = spreading_.sch_power_ratio(u.burst.m) * u.fl_pc.power_watt();
        const std::size_t reduced_n = u.active_set.reduced_count();
        for (std::size_t j = 0; j < reduced_n; ++j)
          stations_[station_index(members[j], u.carrier)].forward_w += sch_w;
      }
    }

    // Mobile TX: pilot + FCH/DCCH (+ SCH for reverse bursts).
    double tx = 0.0;
    if (u.fch_on) {
      const double pilot = u.rl_pc.power_watt();
      tx = pilot * (1.0 + config_.admission.zeta_fch_pilot_ratio * fch_scale);
      if (bursting && u.is_data && !u.forward_dir) {
        tx += pilot * config_.admission.zeta_fch_pilot_ratio * config_.spreading.gamma_s *
              u.burst.m;
      }
      const double cap = mobile_max_w_;
      if (tx > cap) {
        tx = cap;
        if (!in_warmup()) ++metrics_.mobile_power_saturations;
      }
    }
    prev_tx_w_[i] = tx;
    user_carrier_[i] = u.carrier;
    far_field_.on_user_tx(i, tx, u.carrier);
  }

  for (auto& bs : stations_) {
    if (bs.forward_w > config_.radio.bs_max_power_w) {
      // Scale traffic power down to the cap (pilot/common are protected).
      const double traffic = bs.forward_w - idle_w;
      const double allowed = config_.radio.bs_max_power_w - idle_w;
      WCDMA_DEBUG_ASSERT(traffic > 0.0);
      bs.forward_w = idle_w + std::min(traffic, allowed);
      if (!in_warmup()) ++metrics_.bs_power_saturations;
    }
  }
}

void Simulator::collect_frame_metrics() {
  if (in_warmup()) return;
  metrics_.observed_s += config_.frame_s;
  for (const auto& bs : stations_) {
    metrics_.forward_load_fraction.add(bs.forward_w / config_.radio.bs_max_power_w);
    metrics_.reverse_rise_db.add(common::linear_to_db(bs.received_w / noise_w_));
  }
  // The queues maintain exactly the (has_pending && !burst.active) set the
  // legacy full scan counted; pending_requests() keeps the O(users)
  // reference for the equivalence tests.
  metrics_.pending_queue_len.add(static_cast<double>(queues_.total_pending()));
}

void Simulator::inject_request(std::size_t user, double bits) {
  WCDMA_ASSERT(user < users_.size());
  const User& u = users_[user];
  WCDMA_ASSERT(u.is_data && "burst requests are data-user events");
  WCDMA_ASSERT(!u.has_pending && !u.burst.active && injected_bits_[user] < 0.0);
  WCDMA_ASSERT(bits > 0.0);
  injected_bits_[user] = bits;
}

void Simulator::cancel_request(std::size_t user) {
  WCDMA_ASSERT(user < users_.size());
  User& u = users_[user];
  WCDMA_ASSERT(u.is_data);
  if (injected_bits_[user] >= 0.0) {
    // Buffered this frame but not yet queued: the release wins.
    injected_bits_[user] = -1.0;
    return;
  }
  WCDMA_ASSERT(u.has_pending && !u.burst.active);
  queues_.remove(u.id, u.carrier, u.forward_dir);
  u.has_pending = false;
  u.pending_bits = 0.0;
  // Internal mode: the source generated this burst and is waiting for it to
  // finish; complete the cycle so its arrival clock restarts.  External
  // sources never consumed an arrival, so there is nothing to complete.
  if (traffic_mode_ == TrafficMode::kInternal && u.data) u.data->notify_burst_done();
}

void Simulator::set_user_carrier(std::size_t user, int carrier) {
  WCDMA_ASSERT(user < users_.size());
  WCDMA_ASSERT(carrier_in_range(carrier));
  User& u = users_[user];
  // Carrier moves are only legal while the user holds no queue membership:
  // the request buckets are keyed by (carrier, direction).
  WCDMA_ASSERT(u.is_data && !u.has_pending && !u.burst.active);
  u.carrier = carrier;
}

namespace {
constexpr std::uint32_t kSnapshotMagic = 0x504E5357;  // "WSNP" little-endian
// v2: trailing crc32 footer over the whole payload (header included), so a
// bit-flipped checkpoint is refused by checksum instead of parse luck.
// v3: FrameState no longer writes the (always empty) Jakes clock and frame
// lanes; every link's fading is the AR(1) lane.
// v4: adaptive data users no longer write a feedback pipe (it was never
// stepped), and the power-control loops no longer write their SIR target
// (it never moves from the config's).
// v5: FrameState writes the culling providers' candidate sets; the CSR copy
// of the sets and its cell -> users transpose are no longer written (the
// transpose is rebuilt on load).
// v6: FrameState no longer writes one relaxed-precision innovation stream
// per user (the `fast` provider is gone).
// v7: no lane that every frame rewrites before reading it: FrameState's
// gains and pilots, the active sets' dB pilots, and each user's FCH gate,
// forward interference and FCH SIR; stations no longer write last frame's
// forward power (it always equals forward_w between frames).
// v8: the metrics carry `requests_granted`, the grants of post-warm-up
// requests.
constexpr std::uint32_t kSnapshotVersion = 8;
}  // namespace

template <typename Archive>
void Simulator::header_fields(Archive& ar) const {
  ar.expect(kSnapshotMagic);
  ar.expect(kSnapshotVersion);
  // Config fingerprint: restore() only accepts archives taken from a
  // simulator built on the same world shape, seed, and policy stack --
  // everything else about the config is reproduced by construction.
  ar.expect(config_.seed);
  ar.expect(users_.size());
  ar.expect(layout_.num_cells());
  ar.expect(config_.placement.carriers);
  ar.expect(config_.frame_s);
  ar.expect(config_.admission.policy);
  ar.expect(config_.csi.provider);
}

template <typename Self, typename Archive>
void Simulator::body_fields(Self& sim, Archive& ar, std::int64_t max_frame) {
  // A CRC-valid archive is not a trusted one.  The loads size-check every
  // lane before writing it and range-check what they index with on the
  // spot (candidate sets, far-field anchors and carriers); everything else
  // is checked once, by check_invariants() after the walk.
  ar.field(sim.now_s_);
  ar.field(sim.frame_count_);
  // run(), the sweep workers, service_main and perfbench all stop at the
  // configured horizon, so an archive clock beyond it is forged, and the
  // next frame's lazy fading replay would chase it.
  ar.check([&] { return sim.frame_count_ <= max_frame; });
  ar.field(sim.far_refresh_left_s_);
  ar.field(sim.rng_);

  ar.expect(sim.stations_.size());
  for (auto& bs : sim.stations_) {
    ar.field(bs.forward_w);
    ar.field(bs.received_w);
  }
  ar.field(sim.prev_tx_w_);
  ar.field(sim.user_carrier_);
  ar.field(sim.injected_bits_);
  ar.field(sim.queues_);

  ar.expect(sim.users_.size());
  for (auto& u : sim.users_) {
    ar.field(u.carrier);
    ar.field(*u.mobility);
    ar.field(u.active_set);
    ar.field(u.fl_pc);
    ar.field(u.rl_pc);
    if (u.voice) ar.field(*u.voice);
    if (u.data) ar.field(*u.data);
    ar.field(u.mac);
    if (u.fixed) ar.field(*u.fixed);
    ar.field(u.voice_active);
    ar.field(u.has_pending);
    ar.field(u.pending_bits);
    ar.field(u.pending_arrival_s);
    ar.field(u.next_eligible_s);
    ar.field(u.burst.active);
    ar.field(u.burst.m);
    ar.field(u.burst.remaining_bits);
    ar.field(u.burst.arrival_s);
    ar.field(u.burst.setup_left_s);
    ar.field(u.burst.distance_bin);
  }

  ar.field(sim.state_);
  ar.field(sim.far_field_);
  ar.field(*sim.admission_policy_);
  ar.field(sim.metrics_);
}

std::vector<std::uint8_t> Simulator::snapshot() const {
  validate_invariants();
  common::BinaryWriter w;
  header_fields(w);
  body_fields(*this, w, total_frames());
  common::seal(w);
  return w.take();
}

bool Simulator::check_snapshot_header(common::BinaryReader& r) const {
  header_fields(r);
  return r.ok();
}

bool Simulator::restore(const std::vector<std::uint8_t>& bytes) {
  // Footer first: the archive ends in crc32(payload), so a bit flip
  // anywhere -- or a truncation, which shears the footer off its payload --
  // is refused by checksum before a single field is parsed.  The CRC check,
  // like header rejection, is mutation-free; the body is then restored
  // transactionally against a rollback snapshot, so even an archive that
  // passes the checksum but fails structurally or fails check_invariants()
  // (tests truncate at every 64-byte boundary, bit-flip every stride, and
  // forge out-of-range fields) leaves the simulator exactly as it was.
  common::BinaryReader r(nullptr, 0);
  if (!common::unseal(bytes, &r) || !check_snapshot_header(r)) return false;
  const std::vector<std::uint8_t> backup = snapshot();
  const std::int64_t own_frame = frame_count_;
  if (restore_body(r, total_frames())) return true;
  common::BinaryReader back(nullptr, 0);
  const bool rolled_back = common::unseal(backup, &back) && check_snapshot_header(back) &&
                           restore_body(back, own_frame);
  WCDMA_ASSERT(rolled_back && "rollback of a just-taken snapshot must succeed");
  return false;
}

bool Simulator::restore_body(common::BinaryReader& r, std::int64_t max_frame) {
  body_fields(*this, r, max_frame);
  return r.ok() && r.at_end() && check_invariants();
}

bool Simulator::check_invariants(std::string* why) const {
  const auto fail = [why](std::string msg) {
    if (why) *why = std::move(msg);
    return false;
  };

  // SoA lane shapes vs the world shape fixed at construction.
  const std::size_t n_users = users_.size();
  const std::size_t n_cells = layout_.num_cells();
  const auto n_carriers = static_cast<std::size_t>(config_.placement.carriers);
  if (state_.num_users() != n_users || state_.num_cells() != n_cells)
    return fail("FrameState lane shape diverged from the user/cell counts");
  if (prev_tx_w_.size() != n_users || user_carrier_.size() != n_users ||
      injected_bits_.size() != n_users)
    return fail("per-user SoA mirrors diverged from the population size");
  if (stations_.size() != n_cells * n_carriers)
    return fail("station table size diverged from cells x carriers");

  // Clocks: the lazy fading replay runs each link up to FrameState's clock.
  if (frame_count_ < 0 || state_.frame() != frame_count_)
    return fail("the frame count is negative or FrameState's clock disagrees");
  if (!state_.fading_clocks_valid())
    return fail("a link's fading clock lies outside [0, the frame clock]");

  // Index fields vs the tables they index.
  for (std::size_t i = 0; i < n_users; ++i) {
    const User& u = users_[i];
    if (!carrier_in_range(u.carrier) || !carrier_in_range(user_carrier_[i]))
      return fail("user " + std::to_string(i) + "'s carrier is out of range");
    if (u.burst.distance_bin >= kCoverageBins)
      return fail("user " + std::to_string(i) + "'s coverage bin is out of range");
    const std::vector<std::size_t>& members = u.active_set.members();
    for (std::size_t j = 0; j < members.size(); ++j) {
      if (members[j] >= n_cells ||
          std::find(members.begin(), members.begin() + j, members[j]) !=
              members.begin() + j)
        return fail("user " + std::to_string(i) +
                    "'s active set holds an out-of-range or repeated cell");
    }
  }

  // Request-queue buckets vs the per-user burst state they index.
  if (queues_.carriers() != config_.placement.carriers)
    return fail("request-queue carrier count diverged from the config");
  std::size_t queued = 0;
  for (int c = 0; c < config_.placement.carriers; ++c) {
    for (const bool forward : {true, false}) {
      const std::vector<int>& b = queues_.bucket(forward, c);
      int prev = -1;
      for (const int id : b) {
        if (id <= prev)
          return fail("request bucket is not strictly ascending");
        prev = id;
        if (id < 0 || static_cast<std::size_t>(id) >= n_users)
          return fail("request bucket holds an out-of-range user id");
        const User& u = users_[static_cast<std::size_t>(id)];
        if (!u.is_data || !u.has_pending || u.burst.active ||
            u.forward_dir != forward || u.carrier != c)
          return fail("user " + std::to_string(id) +
                      "'s burst state disagrees with its queue bucket");
      }
      queued += b.size();
    }
  }
  if (static_cast<int>(queued) != pending_requests())
    return fail("queue bucket total diverged from the O(users) pending scan");

  // Candidate sets well formed, and the transpose vs a rebuild from them.
  if (!state_.candidate_index_consistent())
    return fail("candidate sets are malformed or their transpose is stale");

  // Far-field TX buckets vs a from-scratch aggregation.
  if (far_field_.active() && !far_field_.tx_buckets_match_rebuild(1e-9))
    return fail("far-field TX buckets diverged from a fresh aggregation");

  if (why) why->clear();
  return true;
}

void Simulator::validate_invariants() const {
#ifndef NDEBUG
  std::string why;
  WCDMA_DCHECK(check_invariants(&why), why.c_str());
#endif
}

double Simulator::forward_power_w(std::size_t cell, int carrier) const {
  WCDMA_ASSERT(cell < layout_.num_cells());
  WCDMA_ASSERT(carrier_in_range(carrier));
  return stations_[station_index(cell, carrier)].forward_w;
}

double Simulator::reverse_interference_w(std::size_t cell, int carrier) const {
  WCDMA_ASSERT(cell < layout_.num_cells());
  WCDMA_ASSERT(carrier_in_range(carrier));
  return stations_[station_index(cell, carrier)].received_w;
}

cell::Point Simulator::user_position(std::size_t user) const {
  WCDMA_ASSERT(user < users_.size());
  return users_[user].mobility->position();
}

int Simulator::user_carrier(std::size_t user) const {
  WCDMA_ASSERT(user < users_.size());
  return users_[user].carrier;
}

std::size_t Simulator::user_home_cell(std::size_t user) const {
  WCDMA_ASSERT(user < users_.size());
  return users_[user].home_cell;
}

int Simulator::pending_requests() const {
  int n = 0;
  for (const auto& u : users_) n += (u.has_pending && !u.burst.active) ? 1 : 0;
  return n;
}

}  // namespace wcdma::sim
