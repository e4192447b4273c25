#ifndef TTRA_TESTS_SPEC_LOG_H_
#define TTRA_TESTS_SPEC_LOG_H_

#include <utility>
#include <vector>

#include "storage/state_log.h"

namespace ttra {

/// The paper's state sequence written literally, as a test reference: a
/// vector of (state, transaction-number) pairs, and FINDSTATE as the
/// obvious linear scan for the last pair whose transaction number is <=
/// the probe. StateLog is checked against it.
template <typename StateT>
class SpecLog {
 public:
  void Append(StateT state, TransactionNumber txn) {
    pairs_.emplace_back(std::move(state), txn);
  }

  void ReplaceLast(StateT state, TransactionNumber txn) {
    pairs_.clear();
    pairs_.emplace_back(std::move(state), txn);
  }

  /// FINDSTATE: the state current at `txn`, or nullptr before the first.
  const StateT* StateAt(TransactionNumber txn) const {
    const StateT* found = nullptr;
    for (const auto& [state, recorded] : pairs_) {
      if (recorded <= txn) found = &state;
    }
    return found;
  }

  size_t size() const { return pairs_.size(); }

 private:
  std::vector<std::pair<StateT, TransactionNumber>> pairs_;
};

}  // namespace ttra

#endif  // TTRA_TESTS_SPEC_LOG_H_
