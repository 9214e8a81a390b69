#include "cdr/typecode.hpp"

#include "cdr/decoder.hpp"
#include "cdr/encoder.hpp"

namespace maqs::cdr {

const char* tc_kind_name(TCKind kind) noexcept {
  switch (kind) {
    case TCKind::kVoid: return "void";
    case TCKind::kBoolean: return "boolean";
    case TCKind::kOctet: return "octet";
    case TCKind::kShort: return "short";
    case TCKind::kLong: return "long";
    case TCKind::kLongLong: return "long long";
    case TCKind::kFloat: return "float";
    case TCKind::kDouble: return "double";
    case TCKind::kString: return "string";
    case TCKind::kSequence: return "sequence";
    case TCKind::kStruct: return "struct";
    case TCKind::kEnum: return "enum";
    case TCKind::kAny: return "any";
    case TCKind::kObjRef: return "objref";
  }
  return "?";
}

namespace {
TypeCodePtr make_basic(TCKind kind) {
  struct Access : TypeCode {
    explicit Access(TCKind k) : TypeCode(k) {}
  };
  return std::make_shared<const Access>(kind);
}

// Basic kinds are singletons; composite factories build fresh nodes.
TypeCodePtr basic_singleton(TCKind kind) {
  switch (kind) {
    case TCKind::kVoid: {
      static const TypeCodePtr tc = make_basic(kind);
      return tc;
    }
    case TCKind::kBoolean: {
      static const TypeCodePtr tc = make_basic(kind);
      return tc;
    }
    case TCKind::kOctet: {
      static const TypeCodePtr tc = make_basic(kind);
      return tc;
    }
    case TCKind::kShort: {
      static const TypeCodePtr tc = make_basic(kind);
      return tc;
    }
    case TCKind::kLong: {
      static const TypeCodePtr tc = make_basic(kind);
      return tc;
    }
    case TCKind::kLongLong: {
      static const TypeCodePtr tc = make_basic(kind);
      return tc;
    }
    case TCKind::kFloat: {
      static const TypeCodePtr tc = make_basic(kind);
      return tc;
    }
    case TCKind::kDouble: {
      static const TypeCodePtr tc = make_basic(kind);
      return tc;
    }
    case TCKind::kString: {
      static const TypeCodePtr tc = make_basic(kind);
      return tc;
    }
    case TCKind::kAny: {
      static const TypeCodePtr tc = make_basic(kind);
      return tc;
    }
    default:
      throw Error("typecode: not a basic kind");
  }
}
}  // namespace

TypeCodePtr TypeCode::void_tc() { return basic_singleton(TCKind::kVoid); }
TypeCodePtr TypeCode::boolean_tc() { return basic_singleton(TCKind::kBoolean); }
TypeCodePtr TypeCode::octet_tc() { return basic_singleton(TCKind::kOctet); }
TypeCodePtr TypeCode::short_tc() { return basic_singleton(TCKind::kShort); }
TypeCodePtr TypeCode::long_tc() { return basic_singleton(TCKind::kLong); }
TypeCodePtr TypeCode::longlong_tc() {
  return basic_singleton(TCKind::kLongLong);
}
TypeCodePtr TypeCode::float_tc() { return basic_singleton(TCKind::kFloat); }
TypeCodePtr TypeCode::double_tc() { return basic_singleton(TCKind::kDouble); }
TypeCodePtr TypeCode::string_tc() { return basic_singleton(TCKind::kString); }
TypeCodePtr TypeCode::any_tc() { return basic_singleton(TCKind::kAny); }

TypeCodePtr TypeCode::sequence_tc(TypeCodePtr element) {
  if (!element) throw Error("typecode: sequence of null element");
  struct Access : TypeCode {
    explicit Access() : TypeCode(TCKind::kSequence) {}
  };
  auto tc = std::make_shared<Access>();
  tc->element_ = std::move(element);
  return tc;
}

TypeCodePtr TypeCode::struct_tc(
    std::string name,
    std::vector<std::pair<std::string, TypeCodePtr>> members) {
  for (const auto& [member_name, member_tc] : members) {
    if (!member_tc) {
      throw Error("typecode: struct member '" + member_name + "' is null");
    }
  }
  struct Access : TypeCode {
    explicit Access() : TypeCode(TCKind::kStruct) {}
  };
  auto tc = std::make_shared<Access>();
  tc->name_ = std::move(name);
  tc->members_ = std::move(members);
  return tc;
}

TypeCodePtr TypeCode::enum_tc(std::string name,
                              std::vector<std::string> enumerators) {
  if (enumerators.empty()) throw Error("typecode: empty enum");
  struct Access : TypeCode {
    explicit Access() : TypeCode(TCKind::kEnum) {}
  };
  auto tc = std::make_shared<Access>();
  tc->name_ = std::move(name);
  tc->enumerators_ = std::move(enumerators);
  return tc;
}

TypeCodePtr TypeCode::objref_tc(std::string repo_id) {
  struct Access : TypeCode {
    explicit Access() : TypeCode(TCKind::kObjRef) {}
  };
  auto tc = std::make_shared<Access>();
  tc->name_ = std::move(repo_id);
  return tc;
}

bool TypeCode::equal(const TypeCode& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case TCKind::kSequence:
      return element_->equal(*other.element_);
    case TCKind::kStruct: {
      if (name_ != other.name_ || members_.size() != other.members_.size()) {
        return false;
      }
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (members_[i].first != other.members_[i].first ||
            !members_[i].second->equal(*other.members_[i].second)) {
          return false;
        }
      }
      return true;
    }
    case TCKind::kEnum:
      return name_ == other.name_ && enumerators_ == other.enumerators_;
    case TCKind::kObjRef:
      return name_ == other.name_;
    default:
      return true;  // basic kinds carry no structure
  }
}

std::string TypeCode::to_string() const {
  switch (kind_) {
    case TCKind::kSequence:
      return "sequence<" + element_->to_string() + ">";
    case TCKind::kStruct:
      return "struct " + name_;
    case TCKind::kEnum:
      return "enum " + name_;
    case TCKind::kObjRef:
      return "objref<" + name_ + ">";
    default:
      return tc_kind_name(kind_);
  }
}

void TypeCode::encode(Encoder& enc) const {
  enc.write_u8(static_cast<std::uint8_t>(kind_));
  switch (kind_) {
    case TCKind::kSequence:
      element_->encode(enc);
      break;
    case TCKind::kStruct:
      enc.write_string(name_);
      enc.write_u32(static_cast<std::uint32_t>(members_.size()));
      for (const auto& [member_name, member_tc] : members_) {
        enc.write_string(member_name);
        member_tc->encode(enc);
      }
      break;
    case TCKind::kEnum:
      enc.write_string(name_);
      enc.write_u32(static_cast<std::uint32_t>(enumerators_.size()));
      for (const auto& e : enumerators_) enc.write_string(e);
      break;
    case TCKind::kObjRef:
      enc.write_string(name_);
      break;
    default:
      break;
  }
}

namespace {

TypeCodePtr decode_nested(Decoder& dec, int depth) {
  if (depth > kMaxTypeNesting) throw CdrError("typecode: nesting too deep");
  const auto raw = dec.read_u8();
  if (raw > static_cast<std::uint8_t>(TCKind::kObjRef)) {
    throw CdrError("typecode: bad kind octet");
  }
  const TCKind kind = static_cast<TCKind>(raw);
  switch (kind) {
    case TCKind::kSequence:
      return TypeCode::sequence_tc(decode_nested(dec, depth + 1));
    case TCKind::kStruct: {
      std::string name = dec.read_string();
      const std::uint32_t n = dec.read_count();
      std::vector<std::pair<std::string, TypeCodePtr>> members;
      members.reserve(dec.reservable(n, sizeof(members[0])));
      for (std::uint32_t i = 0; i < n; ++i) {
        std::string member_name = dec.read_string();
        members.emplace_back(std::move(member_name),
                             decode_nested(dec, depth + 1));
      }
      return TypeCode::struct_tc(std::move(name), std::move(members));
    }
    case TCKind::kEnum: {
      std::string name = dec.read_string();
      const std::uint32_t n = dec.read_count();
      std::vector<std::string> enumerators;
      enumerators.reserve(dec.reservable(n, sizeof(std::string)));
      for (std::uint32_t i = 0; i < n; ++i) {
        enumerators.push_back(dec.read_string());
      }
      return TypeCode::enum_tc(std::move(name), std::move(enumerators));
    }
    case TCKind::kObjRef:
      return TypeCode::objref_tc(dec.read_string());
    default:
      return basic_singleton(kind);
  }
}

}  // namespace

TypeCodePtr TypeCode::decode(Decoder& dec) { return decode_nested(dec, 0); }

}  // namespace maqs::cdr
