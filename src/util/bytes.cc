#include "util/bytes.h"

#include <cstring>
#include <stdexcept>

#include "util/arena.h"

namespace mecdns::util {

void ByteWriter::patch_u16(std::size_t offset, std::uint16_t v) {
  if (offset + 2 > size_) {
    throw std::out_of_range("ByteWriter::patch_u16 past end of buffer");
  }
  data_[offset] = static_cast<std::uint8_t>(v >> 8);
  data_[offset + 1] = static_cast<std::uint8_t>(v);
}

std::vector<std::uint8_t> ByteWriter::take() {
  if (arena_ != nullptr) {
    std::vector<std::uint8_t> out(data_, data_ + size_);
    data_ = nullptr;
    size_ = cap_ = 0;
    return out;
  }
  buf_.resize(size_);
  data_ = nullptr;
  size_ = cap_ = 0;
  return std::move(buf_);
}

void ByteWriter::append(const std::uint8_t* src, std::size_t n) {
  // An empty append may come with a null src (an empty vector's data()) on
  // a writer with no buffer yet; memcpy with null pointers is UB even for 0.
  if (n == 0) return;
  if (size_ + n > cap_) grow(n);
  std::memcpy(data_ + size_, src, n);
  size_ += n;
}

void ByteWriter::grow(std::size_t needed) {
  std::size_t next = cap_ == 0 ? 64 : cap_ * 2;
  while (next < size_ + needed) next *= 2;
  if (arena_ != nullptr) {
    auto* fresh = arena_->alloc_array<std::uint8_t>(next);
    if (size_ != 0) std::memcpy(fresh, data_, size_);
    data_ = fresh;
  } else {
    buf_.resize(next);
    data_ = buf_.data();
  }
  cap_ = next;
}

Result<void> ByteReader::seek(std::size_t offset) {
  if (offset > data_.size()) {
    return Err("seek past end of buffer");
  }
  pos_ = offset;
  return Ok();
}

Result<std::uint8_t> ByteReader::u8() {
  if (remaining() < 1) return Err("truncated: need 1 byte");
  return data_[pos_++];
}

Result<std::uint16_t> ByteReader::u16() {
  if (remaining() < 2) return Err("truncated: need 2 bytes");
  const std::uint16_t v = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

Result<std::uint32_t> ByteReader::u32() {
  if (remaining() < 4) return Err("truncated: need 4 bytes");
  const std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
                          (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
                          (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
                          static_cast<std::uint32_t>(data_[pos_ + 3]);
  pos_ += 4;
  return v;
}

Result<std::vector<std::uint8_t>> ByteReader::bytes(std::size_t n) {
  if (remaining() < n) return Err("truncated: need " + std::to_string(n) +
                                  " bytes, have " + std::to_string(remaining()));
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

Result<std::string> ByteReader::str(std::size_t n) {
  if (remaining() < n) return Err("truncated: need " + std::to_string(n) +
                                  " bytes, have " + std::to_string(remaining()));
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return out;
}

Result<std::string_view> ByteReader::view(std::size_t n) {
  if (remaining() < n) return Err("truncated: need " + std::to_string(n) +
                                  " bytes, have " + std::to_string(remaining()));
  std::string_view out(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return out;
}

Result<std::uint16_t> ByteReader::peek_u16_at(std::size_t offset) const {
  if (offset + 2 > data_.size()) return Err("peek_u16_at past end of buffer");
  return static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(data_[offset]) << 8) | data_[offset + 1]);
}

}  // namespace mecdns::util
