#include "qidl/sema.hpp"

#include <gtest/gtest.h>

namespace maqs::qidl {
namespace {

TEST(Sema, ResolvesNamedTypes) {
  const auto unit = analyze(R"(
    struct Point { long x; long y; };
    enum Color { red, green };
    interface Canvas {
      void draw(in Point p, in Color c);
      sequence<Point> outline();
    };
  )");
  EXPECT_NE(unit.find_struct("Point"), nullptr);
  EXPECT_NE(unit.find_enum("Color"), nullptr);
  EXPECT_NE(unit.find_interface("Canvas"), nullptr);
}

TEST(Sema, RepoIdsIncludeModulePath) {
  const auto unit = analyze(R"(
    module demo { interface Hello { void f(); }; };
  )");
  EXPECT_EQ(unit.interfaces[0].repo_id, "IDL:demo/Hello:1.0");
  EXPECT_EQ(unit.interfaces[0].module, "demo");
}

TEST(Sema, NestedModuleRepoIds) {
  const auto unit = analyze(R"(
    module a { module b { interface X { void f(); }; }; };
  )");
  EXPECT_EQ(unit.interfaces[0].repo_id, "IDL:a/b/X:1.0");
}

TEST(Sema, FileScopeRepoId) {
  const auto unit = analyze("interface X { void f(); };");
  EXPECT_EQ(unit.interfaces[0].repo_id, "IDL:X:1.0");
}

TEST(Sema, RejectsUnknownTypes) {
  EXPECT_THROW(analyze("interface T { void f(in Missing m); };"),
               QidlError);
  EXPECT_THROW(analyze("struct S { Missing m; };"), QidlError);
}

TEST(Sema, RejectsExceptionAsDataType) {
  EXPECT_THROW(analyze(R"(
    exception Oops { };
    interface T { void f(in Oops o); };
  )"),
               QidlError);
}

TEST(Sema, RejectsUnknownRaises) {
  EXPECT_THROW(analyze("interface T { void f() raises (Nope); };"),
               QidlError);
}

TEST(Sema, AcceptsKnownRaises) {
  const auto unit = analyze(R"(
    exception Oops { string why; };
    interface T { void f() raises (Oops); };
  )");
  EXPECT_EQ(unit.exceptions[0].repo_id, "IDL:Oops:1.0");
}

TEST(Sema, RejectsDuplicateDeclarations) {
  EXPECT_THROW(analyze("struct S { }; struct S { };"), QidlError);
  EXPECT_THROW(analyze("interface I { void f(); }; enum I { a };"),
               QidlError);
}

TEST(Sema, RejectsDuplicateOperationAndParamNames) {
  EXPECT_THROW(analyze("interface T { void f(); long f(); };"), QidlError);
  EXPECT_THROW(analyze("interface T { void f(in long x, in long x); };"),
               QidlError);
}

TEST(Sema, RejectsDuplicateFieldsAndEnumerators) {
  EXPECT_THROW(analyze("struct S { long x; short x; };"), QidlError);
  EXPECT_THROW(analyze("enum E { a, a };"), QidlError);
}

TEST(Sema, RejectsSelfReferentialStruct) {
  EXPECT_THROW(analyze("struct S { S inner; };"), QidlError);
}

TEST(Sema, QosParamRules) {
  // Non-basic QoS params forbidden (negotiation marshals them as Anys).
  EXPECT_THROW(analyze(R"(
    qos characteristic C { param sequence<octet> blob; };
  )"),
               QidlError);
  // Default/type mismatch.
  EXPECT_THROW(analyze(R"(
    qos characteristic C { param long level = "high"; };
  )"),
               QidlError);
  // Range on non-integral types.
  EXPECT_THROW(analyze(R"(
    qos characteristic C { param string s = "" range 1 .. 2; };
  )"),
               QidlError);
  // Empty range.
  EXPECT_THROW(analyze(R"(
    qos characteristic C { param long l = 5 range 9 .. 3; };
  )"),
               QidlError);
  // Default outside range.
  EXPECT_THROW(analyze(R"(
    qos characteristic C { param long l = 500 range 1 .. 128; };
  )"),
               QidlError);
  // Duplicate params.
  EXPECT_THROW(analyze(R"(
    qos characteristic C { param long l; param long l; };
  )"),
               QidlError);
}

TEST(Sema, QosDimensionRules) {
  // Non-basic dimension types forbidden (ranked values ride in Anys).
  EXPECT_THROW(analyze(R"(
    qos characteristic C { dimension sequence<octet> d = { 1 }; };
  )"),
               QidlError);
  // Every ranked value must match the declared type.
  EXPECT_THROW(analyze(R"(
    qos characteristic C { dimension long level = { 64, "high", 16 }; };
  )"),
               QidlError);
  // Dimensions share the flattened param namespace with params...
  EXPECT_THROW(analyze(R"(
    qos characteristic C {
      param string algorithm = "lz77";
      dimension string algorithm = { "lz77", "rle" };
    };
  )"),
               QidlError);
  // ...and with each other.
  EXPECT_THROW(analyze(R"(
    qos characteristic C {
      dimension string d = { "a" };
      dimension long d = { 1 };
    };
  )"),
               QidlError);
  // A well-formed dimension passes.
  analyze(R"(
    qos characteristic C {
      dimension string algorithm = { "lz77", "rle", "none" } degrade 0;
      dimension long window = { 64, 16 } degrade 1;
    };
  )");
}

TEST(Sema, QosOperationUniqueness) {
  EXPECT_THROW(analyze(R"(
    qos characteristic C {
      mechanism void f();
      peer void f();
    };
  )"),
               QidlError);
}

TEST(Sema, BindResolvesAndAccumulates) {
  const auto unit = analyze(R"(
    qos characteristic A { mechanism void qos_a(); };
    qos characteristic B { mechanism void qos_b(); };
    interface X { void f(); };
    bind X : A;
    bind X : B;
  )");
  EXPECT_EQ(unit.interfaces[0].bound_characteristics,
            (std::vector<std::string>{"A", "B"}));
}

TEST(Sema, BindRejectsUnknownTargets) {
  EXPECT_THROW(analyze("bind X : A;"), QidlError);
  EXPECT_THROW(analyze(R"(
    interface X { void f(); };
    bind X : Nope;
  )"),
               QidlError);
}

TEST(Sema, BindRejectsFinerThanInterface) {
  // "QoS specifications in QIDL can be assigned to interfaces only"
  // (paper §3.2): the grammar takes one identifier as the target, and
  // sema accepts only an interface there.
  const std::string decls = R"(
    qos characteristic A { mechanism void qos_a(); };
    interface X { void f(in long x); };
  )";
  EXPECT_NO_THROW(analyze(decls + "bind X : A;"));
  EXPECT_THROW(analyze(decls + "bind X::f : A;"), QidlError);
  EXPECT_THROW(analyze(decls + "bind X.f : A;"), QidlError);
  EXPECT_THROW(analyze(decls + "bind f : A;"), QidlError);
}

TEST(Sema, BindRejectsDoubleBinding) {
  EXPECT_THROW(analyze(R"(
    qos characteristic A { };
    interface X { void f(); };
    bind X : A, A;
  )"),
               QidlError);
}

TEST(Sema, BindRejectsQosOpClashBetweenCharacteristics) {
  // "Possible conflicts between different QoS characteristics ... are
  // hard to resolve and therefore forbidden" (paper §3.2).
  EXPECT_THROW(analyze(R"(
    qos characteristic A { mechanism void qos_shared(); };
    qos characteristic B { mechanism void qos_shared(); };
    interface X { void f(); };
    bind X : A, B;
  )"),
               QidlError);
}

TEST(Sema, BindRejectsQosOpClashWithInterfaceOps) {
  EXPECT_THROW(analyze(R"(
    qos characteristic A { mechanism void f(); };
    interface X { void f(); };
    bind X : A;
  )"),
               QidlError);
}

TEST(Sema, NonClashingBindAcrossInterfacesOk) {
  const auto unit = analyze(R"(
    qos characteristic A { mechanism void qos_a(); };
    interface X { void f(); };
    interface Y { void g(); };
    bind X : A;
    bind Y : A;
  )");
  EXPECT_EQ(unit.interfaces[0].bound_characteristics.size(), 1u);
  EXPECT_EQ(unit.interfaces[1].bound_characteristics.size(), 1u);
}

}  // namespace
}  // namespace maqs::qidl
