#include "dram/bank.h"

#include <algorithm>

#include "common/check.h"

namespace nttpim::dram {

// ---------------------------------------------------------------- DramArray

DramArray::DramArray(const DramGeometry& geometry)
    : geometry_(geometry),
      rows_(geometry.rows_per_bank),
      zero_row_(geometry.words_per_row(), 0) {}

std::size_t DramArray::offset(std::uint32_t row, std::uint32_t atom,
                              std::uint32_t lane) const {
  NTTPIM_EXPECT(row < geometry_.rows_per_bank);
  NTTPIM_EXPECT(atom < geometry_.atoms_per_row);
  NTTPIM_EXPECT(lane < geometry_.words_per_atom());
  return static_cast<std::size_t>(atom) * geometry_.words_per_atom() + lane;
}

const std::uint32_t* DramArray::row_data(std::size_t row) const {
  const auto& data = rows_[row];
  return data ? data.get() : zero_row_.data();
}

std::uint32_t* DramArray::writable_row(std::size_t row) {
  auto& data = rows_[row];
  if (!data) {
    data = std::make_unique<std::uint32_t[]>(zero_row_.size());
    ++materialised_;
  }
  return data.get();
}

std::uint32_t DramArray::read_word(std::uint32_t row, std::uint32_t atom,
                                   std::uint32_t lane) const {
  const std::size_t at = offset(row, atom, lane);  // check before indexing
  return row_data(row)[at];
}

void DramArray::write_word(std::uint32_t row, std::uint32_t atom,
                           std::uint32_t lane, std::uint32_t value) {
  const std::size_t at = offset(row, atom, lane);
  writable_row(row)[at] = value;
}

std::span<const std::uint32_t> DramArray::read_atom(std::uint32_t row,
                                                    std::uint32_t atom) const {
  const std::size_t at = offset(row, atom, 0);
  return {row_data(row) + at, geometry_.words_per_atom()};
}

void DramArray::write_atom(std::uint32_t row, std::uint32_t atom,
                           std::span<const std::uint32_t> words) {
  NTTPIM_EXPECT(words.size() == geometry_.words_per_atom());
  const std::size_t at = offset(row, atom, 0);
  std::copy(words.begin(), words.end(), writable_row(row) + at);
}

std::uint32_t DramArray::read_linear(std::size_t word_index) const {
  NTTPIM_EXPECT(word_index < geometry_.words_per_bank());
  const std::size_t wpr = zero_row_.size();
  return row_data(word_index / wpr)[word_index % wpr];
}

void DramArray::write_linear(std::size_t word_index, std::uint32_t value) {
  NTTPIM_EXPECT(word_index < geometry_.words_per_bank());
  const std::size_t wpr = zero_row_.size();
  writable_row(word_index / wpr)[word_index % wpr] = value;
}

// --------------------------------------------------------------- BankTiming

BankTiming::BankTiming(const DramTiming& timing) : timing_(timing) {}

std::uint64_t BankTiming::earliest_act(std::uint64_t t_min) const {
  NTTPIM_CHECK_MSG(open_row_ == kNoOpenRow,
                   "ACT issued while a row is open (missing PRE)");
  return std::max(t_min, t_ready_act_);
}

std::uint64_t BankTiming::earliest_pre(std::uint64_t t_min) const {
  NTTPIM_CHECK_MSG(open_row_ != kNoOpenRow, "PRE issued with no open row");
  std::uint64_t t = std::max(t_min, t_act_ + timing_.tras);
  t = std::max(t, t_wr_recovery_);
  t = std::max(t, t_rd_to_pre_);
  return t;
}

std::uint64_t BankTiming::earliest_column(std::uint64_t t_min) const {
  NTTPIM_CHECK_MSG(open_row_ != kNoOpenRow,
                   "column command issued with no open row");
  std::uint64_t t = std::max(t_min, t_act_ + timing_.trcd);
  t = std::max(t, t_col_ready_);
  return t;
}

void BankTiming::issue_act(std::uint64_t t, std::uint32_t row) {
  NTTPIM_CHECK(t >= earliest_act(t));
  open_row_ = row;
  t_act_ = t;
  row_ever_opened_ = true;
  ++act_count_;
}

void BankTiming::issue_pre(std::uint64_t t) {
  NTTPIM_CHECK(t >= earliest_pre(t));
  open_row_ = kNoOpenRow;
  t_ready_act_ = t + timing_.trp;
  ++pre_count_;
}

std::uint64_t BankTiming::earliest_refresh(std::uint64_t t_min) const {
  NTTPIM_CHECK_MSG(open_row_ == kNoOpenRow,
                   "refresh requires a precharged bank");
  return std::max(t_min, t_ready_act_);
}

void BankTiming::issue_refresh(std::uint64_t t) {
  NTTPIM_CHECK(t >= earliest_refresh(t));
  t_ready_act_ = t + timing_.trfc;
  ++refresh_count_;
}

std::uint64_t BankTiming::issue_read(std::uint64_t t) {
  NTTPIM_CHECK(t >= earliest_column(t));
  t_col_ready_ = t + timing_.tccd;
  const std::uint64_t data_ready = t + timing_.cl + timing_.burst;
  t_rd_to_pre_ = std::max(t_rd_to_pre_, t + timing_.tccd + timing_.burst);
  ++read_count_;
  return data_ready;
}

std::uint64_t BankTiming::issue_write(std::uint64_t t) {
  NTTPIM_CHECK(t >= earliest_column(t));
  t_col_ready_ = t + timing_.tccd;
  const std::uint64_t data_end = t + timing_.cwl + timing_.burst;
  t_wr_recovery_ = std::max(t_wr_recovery_, data_end + timing_.twr);
  ++write_count_;
  return data_end;
}

}  // namespace nttpim::dram
