#include "cosr/common/status.h"

#include <gtest/gtest.h>

namespace cosr {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("object 7");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "object 7");
  EXPECT_EQ(s.ToString(), "NotFound: object 7");
}

TEST(StatusTest, FactoryCodesAreDistinct) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

Status FailsThenPropagates() {
  COSR_RETURN_IF_ERROR(Status::FailedPrecondition("deep failure"));
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailsThenPropagates().code(), StatusCode::kFailedPrecondition);
}

TEST(StatusTest, StatusCodeNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "Ok");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

}  // namespace
}  // namespace cosr
