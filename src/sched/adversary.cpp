#include "sched/adversary.hpp"

#include <stdexcept>

namespace ppfs {

OmissionAdversary::OmissionAdversary(std::unique_ptr<Scheduler> base, std::size_t n,
                                     AdversaryParams params)
    : base_(std::move(base)), n_(n), process_(params) {
  if (!base_) throw std::invalid_argument("OmissionAdversary: null base scheduler");
  if (n_ < 2) throw std::invalid_argument("OmissionAdversary: n >= 2 required");
}

void OmissionAdversary::set_victim_picker(VictimPicker picker) {
  picker_ = std::move(picker);
}

Interaction OmissionAdversary::next(Rng& rng, std::size_t step) {
  if (!picker_) return process_.next(*base_, rng, step, n_);
  if (!process_.should_omit(rng, step)) return base_->next(rng, step);
  Interaction ia = picker_(rng, step);
  ia.omissive = true;
  return ia;
}

}  // namespace ppfs
