// Emitter tests: the generated text contains the weaving shapes the
// runtime expects. (A full generate-compile-run check happens in the
// examples build, where qidlc runs as a build step.)
#include "qidl/emitter.hpp"

#include <gtest/gtest.h>

#include "qidl/generated_support.hpp"
#include "qidl/sema.hpp"

namespace maqs::qidl {
namespace {

std::string emit(const std::string& source) {
  return emit_header(analyze(source));
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

const char* const kStockSource = R"(
  module demo {
    struct Quote { string symbol; double price; };
    enum Side { buy, sell };
    exception BadSymbol { string symbol; };
    interface Stock {
      Quote get_quote(in string symbol) raises (BadSymbol);
      void put_order(in string symbol, in Side side, in long qty);
    };
    qos characteristic Compression {
      category bandwidth;
      param string codec = "lz77";
      param long level = 32 range 1 .. 128;
      dimension string algorithm = { "lz77", "rle", "none" } degrade 0;
      dimension boolean checksum = { true, false } degrade 1;
      mechanism double qos_ratio();
    };
    bind Stock : Compression;
  };
)";

TEST(Emitter, WrapsInRootAndModuleNamespace) {
  const std::string code = emit(kStockSource);
  EXPECT_TRUE(contains(code, "namespace maqs_gen::demo {"));
  EXPECT_TRUE(contains(code, "}  // namespace maqs_gen::demo"));
}

TEST(Emitter, CustomRootNamespace) {
  EmitterOptions options;
  options.root_namespace = "acme";
  const std::string code = emit_header(analyze(kStockSource), options);
  EXPECT_TRUE(contains(code, "namespace acme::demo {"));
}

TEST(Emitter, StructWithMarshalFunctions) {
  const std::string code = emit(kStockSource);
  EXPECT_TRUE(contains(code, "struct Quote {"));
  EXPECT_TRUE(contains(code, "std::string symbol{};"));
  EXPECT_TRUE(contains(code, "double price{};"));
  EXPECT_TRUE(contains(
      code, "inline void write(maqs::cdr::Encoder& enc, const Quote& v)"));
  EXPECT_TRUE(contains(
      code, "inline void read(maqs::cdr::Decoder& dec, Quote& v)"));
}

TEST(Emitter, EnumWithRangeCheckedDecode) {
  const std::string code = emit(kStockSource);
  EXPECT_TRUE(contains(code, "enum class Side : std::uint32_t {"));
  EXPECT_TRUE(contains(code, "if (raw >= 2u)"));
}

TEST(Emitter, ExceptionCarriesRepoId) {
  const std::string code = emit(kStockSource);
  EXPECT_TRUE(contains(code, "struct BadSymbol {"));
  EXPECT_TRUE(contains(code, "return \"IDL:demo/BadSymbol:1.0\";"));
}

TEST(Emitter, StubDerivesFromStubBase) {
  const std::string code = emit(kStockSource);
  EXPECT_TRUE(
      contains(code, "class StockStub : public maqs::orb::StubBase {"));
  EXPECT_TRUE(contains(
      code, "Quote get_quote(const std::string& symbol) const {"));
  EXPECT_TRUE(contains(code, "invoke_operation(\"get_quote\""));
}

TEST(Emitter, PlainSkeletonEmitted) {
  const std::string code = emit(kStockSource);
  EXPECT_TRUE(contains(
      code, "class StockSkeleton : public maqs::orb::Servant {"));
  EXPECT_TRUE(contains(code,
                       "virtual Quote get_quote(const std::string& symbol) "
                       "= 0;"));
  EXPECT_TRUE(contains(code, "static const std::string _id = "
                             "\"IDL:demo/Stock:1.0\";"));
}

TEST(Emitter, QosSkeletonOnlyForBoundInterfaces) {
  const std::string code = emit(kStockSource);
  // Fig. 2 shape: derives from the QoS skeleton base, assigns the bound
  // characteristic in the constructor.
  EXPECT_TRUE(contains(
      code,
      "class StockQosSkeleton : public maqs::core::QosServantBase {"));
  EXPECT_TRUE(
      contains(code, "assign_characteristic(make_Compression_descriptor())"));
  EXPECT_TRUE(contains(code, "void dispatch_app(const std::string& _op"));

  const std::string unbound = emit("interface X { void f(); };");
  EXPECT_FALSE(contains(unbound, "XQosSkeleton"));
  EXPECT_TRUE(contains(unbound, "class XSkeleton"));
}

TEST(Emitter, DescriptorFactory) {
  const std::string code = emit(kStockSource);
  EXPECT_TRUE(contains(code,
                       "inline maqs::core::CharacteristicDescriptor "
                       "make_Compression_descriptor()"));
  EXPECT_TRUE(contains(code, "maqs::core::QosCategory::kBandwidth"));
  EXPECT_TRUE(contains(code, "maqs::cdr::Any::from_string(\"lz77\")"));
  EXPECT_TRUE(contains(code, "maqs::cdr::Any::from_long(32)"));
  EXPECT_TRUE(contains(code, "std::optional<std::int64_t>{128}"));
}

TEST(Emitter, DescriptorFactoryCarriesDimensions) {
  const std::string code = emit(kStockSource);
  // Ranked preference order survives verbatim, most preferred first,
  // with the declared degradation priority.
  EXPECT_TRUE(contains(
      code,
      "maqs::core::DimensionDesc{\"algorithm\", "
      "{maqs::cdr::Any::from_string(\"lz77\"), "
      "maqs::cdr::Any::from_string(\"rle\"), "
      "maqs::cdr::Any::from_string(\"none\")}, 0},"));
  EXPECT_TRUE(contains(
      code,
      "maqs::core::DimensionDesc{\"checksum\", "
      "{maqs::cdr::Any::from_bool(true), "
      "maqs::cdr::Any::from_bool(false)}, 1},"));
}

TEST(Emitter, MediatorBaseWithQosOpDispatch) {
  const std::string code = emit(kStockSource);
  EXPECT_TRUE(contains(
      code,
      "class CompressionMediatorBase : public maqs::core::Mediator {"));
  EXPECT_TRUE(contains(code, "virtual double qos_ratio() = 0;"));
  EXPECT_TRUE(contains(code, "maqs::cdr::Any::from_double(qos_ratio())"));
}

TEST(Emitter, ImplBaseWithQosOpDispatch) {
  const std::string code = emit(kStockSource);
  EXPECT_TRUE(contains(
      code, "class CompressionImplBase : public maqs::core::QosImpl {"));
  EXPECT_TRUE(contains(code, "void dispatch_qos_op(const std::string& _op"));
  EXPECT_TRUE(contains(code, "write(_out, qos_ratio())"));
}

TEST(Emitter, SequenceParamsByConstRef) {
  const std::string code = emit(R"(
    interface T { void f(in sequence<octet> data); };
  )");
  EXPECT_TRUE(contains(
      code, "f(const std::vector<std::uint8_t>& data)"));
}

TEST(Emitter, EnumsPassedByValue) {
  const std::string code = emit(kStockSource);
  EXPECT_TRUE(contains(code, "Side side"));
  EXPECT_FALSE(contains(code, "const Side&"));
}

TEST(Emitter, UnknownOperationRaisesBadOperation) {
  const std::string code = emit(kStockSource);
  EXPECT_TRUE(contains(
      code, "throw maqs::orb::BadOperation(\"Stock: unknown operation \""));
}

TEST(Emitter, FileScopeDeclarationsLandInRootNamespace) {
  const std::string code = emit("interface X { void f(); };");
  EXPECT_TRUE(contains(code, "namespace maqs_gen {"));
}

TEST(Emitter, DependentStructsEmittedInUsableOrder) {
  const std::string code = emit(R"(
    struct Outer { Inner i; };
    struct Inner { long x; };
  )");
  EXPECT_LT(code.find("struct Inner"), code.find("struct Outer"));
}

TEST(Emitter, PeerAndAspectOpsInImplBase) {
  const std::string code = emit(R"(
    qos characteristic Replication {
      aspect sequence<octet> qos_get_state();
      aspect void qos_set_state(in sequence<octet> state);
      peer void qos_sync(in long long seqno);
    };
  )");
  EXPECT_TRUE(contains(
      code, "virtual std::vector<std::uint8_t> qos_get_state() = 0;"));
  EXPECT_TRUE(contains(code, "_op == \"qos_set_state\""));
  EXPECT_TRUE(contains(code, "_op == \"qos_sync\""));
}

// The runtime support generated code unmarshals sequences through.
TEST(GeneratedSupport, SequenceCountPastTheInputRejected) {
  cdr::Encoder enc;
  enc.write_u32(0xFFFFFFFFu);
  cdr::Decoder dec(enc.buffer());
  std::vector<std::int32_t> values;
  EXPECT_THROW(gen::read(dec, values), cdr::CdrError);
}

}  // namespace
}  // namespace maqs::qidl
